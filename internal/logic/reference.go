package logic

import (
	"fmt"

	"kpa/internal/core"
	"kpa/internal/measure"
	"kpa/internal/rat"
	"kpa/internal/system"
)

// ReferenceEvaluator is the naive map-based model checker: a direct
// transcription of the semantics of L(Φ) over PointSet, with no point
// index, no cached cell partitions and no dense bitsets. It is retained as
// the executable specification the optimized Evaluator is differentially
// tested against (see differential_test.go) and as the baseline the
// Benchmark*Naive benchmarks measure the dense engine's speedup over.
//
// Like Evaluator it memoizes extensions by formula node identity and is not
// safe for concurrent use.
type ReferenceEvaluator struct {
	sys   *system.System
	prob  *core.ProbAssignment
	props map[string]system.Fact
	memo  map[Formula]system.PointSet
}

// NewReferenceEvaluator builds a naive evaluator for the system. prob may
// be nil if no probability operators will be evaluated.
func NewReferenceEvaluator(sys *system.System, prob *core.ProbAssignment, props map[string]system.Fact) *ReferenceEvaluator {
	cp := make(map[string]system.Fact, len(props))
	for k, v := range props {
		cp[k] = v
	}
	return &ReferenceEvaluator{sys: sys, prob: prob, props: cp, memo: make(map[Formula]system.PointSet)}
}

// Extension returns the set of points where the formula holds. The returned
// set is shared with the memo and must not be modified.
func (e *ReferenceEvaluator) Extension(f Formula) (system.PointSet, error) {
	if ext, ok := e.memo[f]; ok {
		return ext, nil
	}
	ext, err := e.compute(f)
	if err != nil {
		return nil, err
	}
	e.memo[f] = ext
	return ext, nil
}

// Holds reports whether the formula is true at the point.
func (e *ReferenceEvaluator) Holds(f Formula, at system.Point) (bool, error) {
	ext, err := e.Extension(f)
	if err != nil {
		return false, err
	}
	return ext.Contains(at), nil
}

func (e *ReferenceEvaluator) compute(f Formula) (system.PointSet, error) {
	all := e.sys.Points()
	switch f := f.(type) {
	case *PropFormula:
		fact, ok := e.props[f.Name]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownProp, f.Name)
		}
		return all.Filter(fact.Holds), nil

	case *BoolFormula:
		if f.Value {
			return all.Clone(), nil
		}
		return system.NewPointSet(), nil

	case *NotFormula:
		sub, err := e.Extension(f.Sub)
		if err != nil {
			return nil, err
		}
		return all.Minus(sub), nil

	case *AndFormula:
		l, err := e.Extension(f.Left)
		if err != nil {
			return nil, err
		}
		r, err := e.Extension(f.Right)
		if err != nil {
			return nil, err
		}
		return l.Intersect(r), nil

	case *OrFormula:
		l, err := e.Extension(f.Left)
		if err != nil {
			return nil, err
		}
		r, err := e.Extension(f.Right)
		if err != nil {
			return nil, err
		}
		return l.Union(r), nil

	case *ImpliesFormula:
		l, err := e.Extension(f.Left)
		if err != nil {
			return nil, err
		}
		r, err := e.Extension(f.Right)
		if err != nil {
			return nil, err
		}
		return all.Minus(l).Union(r), nil

	case *NextFormula:
		sub, err := e.Extension(f.Sub)
		if err != nil {
			return nil, err
		}
		out := make(system.PointSet)
		for p := range all {
			if nxt, ok := p.Next(); ok && sub.Contains(nxt) {
				out.Add(p)
			}
		}
		return out, nil

	case *UntilFormula:
		return e.computeUntil(f.Left, f.Right)

	case *EventuallyFormula:
		return e.computeUntil(True, f.Sub)

	case *AlwaysFormula:
		// □φ = ¬(true U ¬φ).
		l, err := e.Extension(True)
		if err != nil {
			return nil, err
		}
		r, err := e.Extension(f.Sub)
		if err != nil {
			return nil, err
		}
		return all.Minus(e.until(l, all.Minus(r))), nil

	case *KnowFormula:
		if err := checkAgentIn(e.sys, f.Agent); err != nil {
			return nil, err
		}
		sub, err := e.Extension(f.Sub)
		if err != nil {
			return nil, err
		}
		return e.knowExtension(f.Agent, sub), nil

	case *PrGeqFormula:
		if err := checkAgentIn(e.sys, f.Agent); err != nil {
			return nil, err
		}
		sub, err := e.Extension(f.Sub)
		if err != nil {
			return nil, err
		}
		return e.prExtension(f.Agent, sub, f.Alpha, true)

	case *PrLeqFormula:
		if err := checkAgentIn(e.sys, f.Agent); err != nil {
			return nil, err
		}
		sub, err := e.Extension(f.Sub)
		if err != nil {
			return nil, err
		}
		return e.prExtension(f.Agent, sub, f.Beta, false)

	case *EveryoneFormula:
		if err := checkGroupIn(e.sys, f.Group); err != nil {
			return nil, err
		}
		sub, err := e.Extension(f.Sub)
		if err != nil {
			return nil, err
		}
		return e.everyoneExtension(f.Group, sub), nil

	case *CommonFormula:
		if err := checkGroupIn(e.sys, f.Group); err != nil {
			return nil, err
		}
		sub, err := e.Extension(f.Sub)
		if err != nil {
			return nil, err
		}
		// Greatest fixed point of X = E_G(φ ∧ X), from X = all points.
		x := all.Clone()
		for {
			next := e.everyoneExtension(f.Group, sub.Intersect(x))
			if next.Equal(x) {
				return x, nil
			}
			x = next
		}

	case *EveryonePrFormula:
		if err := checkGroupIn(e.sys, f.Group); err != nil {
			return nil, err
		}
		sub, err := e.Extension(f.Sub)
		if err != nil {
			return nil, err
		}
		return e.everyonePrExtension(f.Group, sub, f.Alpha)

	case *CommonPrFormula:
		if err := checkGroupIn(e.sys, f.Group); err != nil {
			return nil, err
		}
		sub, err := e.Extension(f.Sub)
		if err != nil {
			return nil, err
		}
		// Greatest fixed point of X = E_G^α(φ ∧ X).
		x := all.Clone()
		for {
			next, err := e.everyonePrExtension(f.Group, sub.Intersect(x), f.Alpha)
			if err != nil {
				return nil, err
			}
			if next.Equal(x) {
				return x, nil
			}
			x = next
		}

	default:
		return nil, fmt.Errorf("logic: unknown formula type %T", f)
	}
}

// computeUntil computes the extension of φ U ψ.
func (e *ReferenceEvaluator) computeUntil(phi, psi Formula) (system.PointSet, error) {
	l, err := e.Extension(phi)
	if err != nil {
		return nil, err
	}
	r, err := e.Extension(psi)
	if err != nil {
		return nil, err
	}
	return e.until(l, r), nil
}

// until returns φ U ψ over finite runs, given l = φ's extension and r =
// ψ's: ψ holds at some point j ≥ k of the run and φ holds at all points in
// [k, j).
func (e *ReferenceEvaluator) until(l, r system.PointSet) system.PointSet {
	out := make(system.PointSet)
	for _, tree := range e.sys.Trees() {
		for run := 0; run < tree.NumRuns(); run++ {
			n := tree.RunLen(run)
			// Walk the run backwards: until holds at k iff ψ at k, or
			// (φ at k and until at k+1).
			holds := false
			for k := n - 1; k >= 0; k-- {
				p := system.Point{Tree: tree, Run: run, Time: k}
				switch {
				case r.Contains(p):
					holds = true
				case l.Contains(p) && holds:
					// keep holds = true
				default:
					holds = false
				}
				if holds {
					out.Add(p)
				}
			}
		}
	}
	return out
}

// knowExtension computes {c : K_i(c) ⊆ ext}, re-partitioning the system
// into information cells on every call.
func (e *ReferenceEvaluator) knowExtension(i system.AgentID, ext system.PointSet) system.PointSet {
	out := make(system.PointSet)
	cells := make(map[system.LocalState]system.PointSet)
	for p := range e.sys.Points() {
		if cells[p.Local(i)] == nil {
			cells[p.Local(i)] = make(system.PointSet)
		}
		cells[p.Local(i)].Add(p)
	}
	for _, cell := range cells {
		if cell.SubsetOf(ext) {
			for p := range cell {
				out.Add(p)
			}
		}
	}
	return out
}

// prExtension computes {c : inner measure of S_ic ∩ ext ≥ α} (geq) or
// {c : outer measure ≤ α} (leq), resolving the point's space and memoizing
// the verdict per distinct space object.
func (e *ReferenceEvaluator) prExtension(i system.AgentID, ext system.PointSet, bound rat.Rat, geq bool) (system.PointSet, error) {
	if e.prob == nil {
		return nil, ErrNoProbability
	}
	out := make(system.PointSet)
	verdicts := make(map[*measure.Space]bool)
	for c := range e.sys.Points() {
		sp, err := e.prob.Space(i, c)
		if err != nil {
			return nil, fmt.Errorf("Pr%d at %v: %w", i+1, c, err)
		}
		v, ok := verdicts[sp]
		if !ok {
			if geq {
				v = sp.Inner(ext).GreaterEq(bound)
			} else {
				v = sp.Outer(ext).LessEq(bound)
			}
			verdicts[sp] = v
		}
		if v {
			out.Add(c)
		}
	}
	return out, nil
}

func (e *ReferenceEvaluator) everyoneExtension(group []system.AgentID, ext system.PointSet) system.PointSet {
	out := e.sys.Points().Clone()
	for _, i := range group {
		out = out.Intersect(e.knowExtension(i, ext))
	}
	return out
}

func (e *ReferenceEvaluator) everyonePrExtension(group []system.AgentID, ext system.PointSet, alpha rat.Rat) (system.PointSet, error) {
	out := e.sys.Points().Clone()
	for _, i := range group {
		pr, err := e.prExtension(i, ext, alpha, true)
		if err != nil {
			return nil, err
		}
		out = out.Intersect(e.knowExtension(i, pr))
	}
	return out, nil
}
