package logic

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"kpa/internal/core"
	"kpa/internal/measure"
	"kpa/internal/rat"
	"kpa/internal/system"
)

// Errors returned by the evaluator.
var (
	// ErrUnknownProp is returned when a formula mentions a primitive
	// proposition absent from the evaluator's proposition table.
	ErrUnknownProp = errors.New("logic: unknown proposition")
	// ErrNoProbability is returned when a formula uses Pr_i but the
	// evaluator was built without a probability assignment.
	ErrNoProbability = errors.New("logic: formula uses Pr but no probability assignment given")
	// ErrBadAgent is returned when a formula names an agent outside the
	// system.
	ErrBadAgent = errors.New("logic: agent index out of range")
)

// Model is the part of model checking that depends only on the system, the
// sample-space assignment and the propositions, never on a formula: each
// primitive proposition's extension and each agent's probability-space
// table (the induced assignment P of §5 in dense form). Every evaluator
// over a model reads the same tables. A slot is filled by the first
// evaluator that needs it and published by compare-and-swap, so the first
// complete build wins and is never replaced; a build that is canceled or
// panics publishes nothing, and the next evaluator that needs the slot
// builds it afresh. A Model is safe for concurrent use by any number of
// evaluators; its facts are then called from several goroutines at once,
// so they must be safe for that, as SetEngine also asks.
type Model struct {
	sys    *system.System
	sample core.SampleAssignment // nil: no probability assignment
	props  map[string]*propSlot  // fixed by NewModel
	spaces []atomic.Pointer[spaceIndex]
}

// propSlot is one primitive proposition: its fact and, once scanned, its
// extension.
type propSlot struct {
	fact system.Fact
	ext  atomic.Pointer[system.DenseSet]
}

// NewModel binds a system to a probability assignment and a proposition
// table. prob may be nil if no probability operators will be evaluated;
// props maps primitive proposition names to facts. Nothing is built until
// an evaluator needs it; the system's point index is built by the first
// NewEvaluator, if not before.
func NewModel(sys *system.System, prob *core.ProbAssignment, props map[string]system.Fact) *Model {
	m := &Model{
		sys:    sys,
		props:  make(map[string]*propSlot, len(props)),
		spaces: make([]atomic.Pointer[spaceIndex], sys.NumAgents()),
	}
	if prob != nil {
		m.sample = prob.SampleAssignment()
	}
	for name, fact := range props {
		m.props[name] = &propSlot{fact: fact}
	}
	return m
}

// NewEvaluator returns an evaluator over the model with an empty memo.
func (m *Model) NewEvaluator() *Evaluator {
	return &Evaluator{
		m:       m,
		idx:     m.sys.Index(),
		memo:    make(map[Formula]*system.DenseSet),
		extMemo: make(map[Formula]system.PointSet),
	}
}

// publish stores v in the empty slot and returns it, or returns what a
// concurrent build stored there first.
func publish[T any](slot *atomic.Pointer[T], v *T) *T {
	if slot.CompareAndSwap(nil, v) {
		return v
	}
	return slot.Load()
}

// Evaluator model-checks formulas of L(Φ) over a Model. Probability
// formulas are interpreted with respect to the model's probability
// assignment (the induced assignment of a sample-space assignment);
// different assignments give different truths, which is the point of the
// paper.
//
// Internally the evaluator runs on the system's dense point index
// (system.Index): subformula extensions are DenseSet bitsets combined by
// word-wise arithmetic, K_i walks the members of each information cell in
// the index's cached cell partition, C_G is K over the group's cached
// component partition, and Pr_i reads the model's per-agent space table,
// which every later probability query — in particular every iteration of
// the C_G^α fixpoint — reuses. The exported API still speaks PointSet;
// conversion happens only at this boundary and is memoized.
//
// An Evaluator memoizes formula extensions (the set of points where each
// subformula holds) by node identity, so reusing formula objects across
// queries is cheap; since the package hash-conses formula constructors,
// re-parsing the same formula text reuses the same nodes and hence hits
// the memo.
//
// Evaluators are NOT safe for concurrent use: callers that share a system
// across goroutines give each goroutine its own Evaluator over one shared
// Model, or check evaluators in and out of a pool (see internal/service).
// The memo is the evaluator's only state of its own; Reset drops it. The
// System, its point index and the model's tables are read-only once built
// and are shared freely.
type Evaluator struct {
	m   *Model
	idx *system.Index

	memo    map[Formula]*system.DenseSet // dense extensions, by node identity
	extMemo map[Formula]system.PointSet  // boundary conversions of memo entries

	// cancel is the optional cooperative-cancellation hook installed by
	// SetCancel; nil means evaluation runs to completion.
	cancel func() error

	// eng is the worker budget the sharded kernels borrow from (SetEngine);
	// nil keeps every kernel on the serial path.
	eng *Engine
}

// spaceIndex is one agent's probability-space table in dense form. Block s
// of part holds the points whose space is s, so per-space work (verdicts)
// parallelizes over spaces and the fan-out to points is Partition.Spread.
// base[s] is the integer weight of all of R(S_ic) (system.Tree.RunWeights),
// so space s assigns a set of runs of weight w the conditional probability
// w/base[s]. base[s] == 0 marks a space whose tree has no integer weights,
// or that has no runs; its verdicts take the exact path.
//
// When every space's sample is its block and no run meets a space twice,
// as in every synchronous system under the canonical assignments, the
// table is part and base alone: a space's measure of ext is the weight of
// its members in ext, which Partition.WeightIn sums for every space in one
// pass over ext's words. Any other table keeps one row per run of R(S_ic),
// in compressed-row form: space s owns the rows runOff[s] ≤ k <
// runOff[s+1]; row k is the fiber fibIDs[fibOff[k]:fibOff[k+1]], the dense
// IDs of the sample points on its run, and weight[k] is that run's integer
// weight. When every fiber is one point fibOff is nil and row k's fiber is
// fibIDs[k] alone.
type spaceIndex struct {
	part *system.Partition
	base []uint64

	runOff []int // nil when the spaces are part's blocks, one point per run
	weight []uint64
	fibOff []int
	fibIDs []int32
}

// cancelStride is how many points a linear scan (proposition extension,
// probability table sweep) may visit between cancellation checks. Power of
// two so the hot loops can test id&(cancelStride-1) == 0.
const cancelStride = 4096

// NewEvaluator builds an evaluator over a model of its own: shorthand for
// NewModel(sys, prob, props).NewEvaluator().
func NewEvaluator(sys *system.System, prob *core.ProbAssignment, props map[string]system.Fact) *Evaluator {
	return NewModel(sys, prob, props).NewEvaluator()
}

// System returns the evaluator's system.
func (e *Evaluator) System() *system.System { return e.m.sys }

// Reset drops the memo table. Pools call this when a long-lived
// evaluator's memo exceeds their cap; the model's tables are untouched.
func (e *Evaluator) Reset() {
	e.memo = make(map[Formula]*system.DenseSet)
	e.extMemo = make(map[Formula]system.PointSet)
}

// SetCancel installs a cooperative-cancellation hook. The evaluator calls
// the hook at every subformula boundary, on every fixpoint round of C_G^α,
// and every cancelStride points of the linear scans (proposition
// extensions, probability sums, component-partition builds); the first
// non-nil return aborts the evaluation with exactly that error. The hook
// must be cheap (it runs on hot paths) and must not touch the evaluator.
// With a parallelism budget above 1 (SetEngine) the sharded kernels
// poll the hook from several goroutines at once, so it must also be safe
// for concurrent calls — reading a closed-channel or atomic signal, as the
// service's context-backed hook does, qualifies.
//
// Aborting is safe: the memo only ever holds completed, correct
// extensions, and an aborted build publishes nothing to the model, so a
// canceled evaluator can be pooled and reused without a Reset.
// SetCancel(nil) removes the hook; pools install a fresh hook per checkout
// (see internal/service) so a stale hook never outlives its request. ReferenceEvaluator deliberately has no cancellation — it stays
// the straight-line executable specification.
func (e *Evaluator) SetCancel(cancel func() error) { e.cancel = cancel }

// checkCancel consults the cancellation hook, if any.
func (e *Evaluator) checkCancel() error {
	if e.cancel == nil {
		return nil
	}
	return e.cancel()
}

// MemoLen reports the number of memoized subformula extensions.
func (e *Evaluator) MemoLen() int { return len(e.memo) }

// MemoWords reports the evaluator's memo footprint in 64-bit words across
// the memoized dense extensions, so pools can bound a pooled evaluator's
// memory rather than just its entry count.
func (e *Evaluator) MemoWords() int {
	return len(e.memo) * e.idx.Words()
}

// Holds reports whether the formula is true at the point.
func (e *Evaluator) Holds(f Formula, at system.Point) (bool, error) {
	ext, err := e.DenseExtension(f)
	if err != nil {
		return false, err
	}
	return ext.ContainsPoint(at), nil
}

// Valid reports whether the formula holds at every point of the system.
func (e *Evaluator) Valid(f Formula) (bool, error) {
	ext, err := e.DenseExtension(f)
	if err != nil {
		return false, err
	}
	return ext.Len() == e.idx.NumPoints(), nil
}

// CounterExamples returns the points at which the formula fails, in
// deterministic order.
func (e *Evaluator) CounterExamples(f Formula) ([]system.Point, error) {
	ext, err := e.DenseExtension(f)
	if err != nil {
		return nil, err
	}
	return ext.Complement(1).PointSet().Sorted(), nil
}

// Fact converts a formula to a system.Fact (its extension as a predicate).
func (e *Evaluator) Fact(f Formula) (system.Fact, error) {
	ext, err := e.Extension(f)
	if err != nil {
		return nil, err
	}
	return system.FactOfSet(f.String(), ext), nil
}

// Extension returns the set of points where the formula holds. The returned
// set is shared with the memo and must not be modified.
func (e *Evaluator) Extension(f Formula) (system.PointSet, error) {
	if ext, ok := e.extMemo[f]; ok {
		return ext, nil
	}
	d, err := e.DenseExtension(f)
	if err != nil {
		return nil, err
	}
	ext := d.PointSet()
	e.extMemo[f] = ext
	return ext, nil
}

// DenseExtension returns the extension of the formula as a dense bitset
// over the system's point index. The returned set is shared with the memo
// and must not be modified.
func (e *Evaluator) DenseExtension(f Formula) (*system.DenseSet, error) {
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

// checkAgentIn validates an agent index against a system; shared between
// the dense and reference evaluators.
func checkAgentIn(sys *system.System, i system.AgentID) error {
	if int(i) < 0 || int(i) >= sys.NumAgents() {
		return fmt.Errorf("%w: p%d in a %d-agent system", ErrBadAgent, i+1, sys.NumAgents())
	}
	return nil
}

// checkGroupIn validates a group of agent indices against a system.
func checkGroupIn(sys *system.System, g []system.AgentID) error {
	if len(g) == 0 {
		return fmt.Errorf("logic: empty agent group")
	}
	for _, i := range g {
		if err := checkAgentIn(sys, i); err != nil {
			return err
		}
	}
	return nil
}

func (e *Evaluator) compute(f Formula) (*system.DenseSet, error) {
	// Every subformula computation is a cancellation point, so even a
	// deeply-nested formula whose individual operators are cheap aborts
	// between levels.
	if err := e.checkCancel(); err != nil {
		return nil, err
	}
	idx := e.idx
	switch f := f.(type) {
	case *PropFormula:
		slot, ok := e.m.props[f.Name]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownProp, f.Name)
		}
		if ext := slot.ext.Load(); ext != nil {
			return ext, nil
		}
		// With workers > 1 the fact's Holds is called from several
		// goroutines; SetEngine documents that facts must tolerate that.
		ps, stop := e.stopFn()
		var out *system.DenseSet
		e.eng.Sweep(idx.NumPoints(), func(workers int) {
			out = idx.Select(workers, stop, func(id int) bool { return slot.fact.Holds(idx.PointAt(id)) })
		})
		// A scan the hook aborted is partial: return before publishing it.
		if err := ps.Err(); err != nil {
			return nil, err
		}
		return publish(&slot.ext, out), nil

	case *BoolFormula:
		if f.Value {
			return idx.FullDense(), nil
		}
		return idx.NewDense(), nil

	case *NotFormula:
		sub, err := e.DenseExtension(f.Sub)
		if err != nil {
			return nil, err
		}
		return e.complementPar(sub), nil

	case *AndFormula:
		l, err := e.DenseExtension(f.Left)
		if err != nil {
			return nil, err
		}
		r, err := e.DenseExtension(f.Right)
		if err != nil {
			return nil, err
		}
		return e.intersectPar(l, r), nil

	case *OrFormula:
		l, err := e.DenseExtension(f.Left)
		if err != nil {
			return nil, err
		}
		r, err := e.DenseExtension(f.Right)
		if err != nil {
			return nil, err
		}
		return e.unionPar(l, r), nil

	case *ImpliesFormula:
		l, err := e.DenseExtension(f.Left)
		if err != nil {
			return nil, err
		}
		r, err := e.DenseExtension(f.Right)
		if err != nil {
			return nil, err
		}
		return e.unionPar(e.complementPar(l), r), nil

	case *NextFormula:
		sub, err := e.DenseExtension(f.Sub)
		if err != nil {
			return nil, err
		}
		return idx.Next(sub), nil

	case *UntilFormula:
		return e.computeUntil(f.Left, f.Right)

	case *EventuallyFormula:
		return e.computeUntil(True, f.Sub)

	case *AlwaysFormula:
		// □φ = ¬◇¬φ. Not(f.Sub) is hash-consed, so the inner extension
		// memoizes across queries; only the final complement is fresh.
		ev, err := e.computeUntil(True, Not(f.Sub))
		if err != nil {
			return nil, err
		}
		return e.complementPar(ev), nil

	case *KnowFormula:
		if err := checkAgentIn(e.m.sys, f.Agent); err != nil {
			return nil, err
		}
		sub, err := e.DenseExtension(f.Sub)
		if err != nil {
			return nil, err
		}
		return e.knowExtension(f.Agent, sub)

	case *PrGeqFormula:
		if err := checkAgentIn(e.m.sys, f.Agent); err != nil {
			return nil, err
		}
		sub, err := e.DenseExtension(f.Sub)
		if err != nil {
			return nil, err
		}
		return e.prExtension(f.Agent, sub, f.Alpha, true)

	case *PrLeqFormula:
		if err := checkAgentIn(e.m.sys, f.Agent); err != nil {
			return nil, err
		}
		sub, err := e.DenseExtension(f.Sub)
		if err != nil {
			return nil, err
		}
		return e.prExtension(f.Agent, sub, f.Beta, false)

	case *EveryoneFormula:
		if err := checkGroupIn(e.m.sys, f.Group); err != nil {
			return nil, err
		}
		sub, err := e.DenseExtension(f.Sub)
		if err != nil {
			return nil, err
		}
		return e.everyoneExtension(f.Group, sub)

	case *CommonFormula:
		if err := checkGroupIn(e.m.sys, f.Group); err != nil {
			return nil, err
		}
		sub, err := e.DenseExtension(f.Sub)
		if err != nil {
			return nil, err
		}
		// C_G φ holds at c iff φ holds on c's whole component under
		// ⋃_{i∈G} ~_i: one K sweep over the group's component partition,
		// with no fixpoint rounds (ReferenceEvaluator keeps the fixpoint).
		ps, stop := e.stopFn()
		var out *system.DenseSet
		e.eng.Sweep(idx.NumPoints(), func(workers int) {
			if comps := idx.CommonCells(f.Group, workers, stop); comps != nil {
				out = comps.KnowExtension(sub, workers, stop)
			}
		})
		if err := ps.Err(); err != nil {
			return nil, err
		}
		return out, nil

	case *EveryonePrFormula:
		if err := checkGroupIn(e.m.sys, f.Group); err != nil {
			return nil, err
		}
		sub, err := e.DenseExtension(f.Sub)
		if err != nil {
			return nil, err
		}
		return e.everyonePrExtension(f.Group, sub, f.Alpha)

	case *CommonPrFormula:
		if err := checkGroupIn(e.m.sys, f.Group); err != nil {
			return nil, err
		}
		sub, err := e.DenseExtension(f.Sub)
		if err != nil {
			return nil, err
		}
		// Greatest fixed point of X = E_G^α(φ ∧ X), from X = all points
		// (x nil), where φ ∧ X is φ itself.
		var x *system.DenseSet
		in := sub
		for {
			if err := e.checkCancel(); err != nil {
				return nil, err
			}
			if e.eng != nil {
				e.eng.ShardRounds.Add(1)
			}
			next, err := e.everyonePrExtension(f.Group, in, f.Alpha)
			if err != nil {
				return nil, err
			}
			if x == nil && next.Len() == idx.NumPoints() || x != nil && next.Equal(x) {
				return next, nil
			}
			x, in = next, e.intersectPar(sub, next)
		}

	default:
		return nil, fmt.Errorf("logic: unknown formula type %T", f)
	}
}

// computeUntil computes the extension of φ U ψ over finite runs: ψ holds at
// some point l ≥ k of the run and φ holds at all points in [k, l)
// (system.Index.Until).
func (e *Evaluator) computeUntil(phi, psi Formula) (*system.DenseSet, error) {
	l, err := e.DenseExtension(phi)
	if err != nil {
		return nil, err
	}
	r, err := e.DenseExtension(psi)
	if err != nil {
		return nil, err
	}
	return e.idx.Until(l, r), nil
}

// intersectPar, unionPar, complementPar run one set-algebra combine on the
// workers combine lends; below its word threshold that is one worker, the
// allocation-free serial loop.
func (e *Evaluator) intersectPar(a, b *system.DenseSet) (out *system.DenseSet) {
	e.combine(func(workers int) { out = a.Intersect(b, workers) })
	return out
}

func (e *Evaluator) unionPar(a, b *system.DenseSet) (out *system.DenseSet) {
	e.combine(func(workers int) { out = a.Union(b, workers) })
	return out
}

func (e *Evaluator) complementPar(a *system.DenseSet) (out *system.DenseSet) {
	e.combine(func(workers int) { out = a.Complement(workers) })
	return out
}

// knowExtension computes {c : K_i(c) ⊆ ext} with the member-walk kernel
// over the index's cached cell partition (system.Partition.KnowExtension),
// sharded across the evaluator's workers.
func (e *Evaluator) knowExtension(i system.AgentID, ext *system.DenseSet) (*system.DenseSet, error) {
	ps, stop := e.stopFn()
	var out *system.DenseSet
	e.eng.Sweep(e.idx.NumPoints(), func(workers int) {
		out = e.idx.Cells(i, workers).KnowExtension(ext, workers, stop)
	})
	if err := ps.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// spaceIndexFor returns agent i's dense space table from the model,
// building and publishing it on first use. A core.PartitionAssignment's
// blocks are the sample spaces themselves; any other assignment takes
// perPointSpaces.
func (e *Evaluator) spaceIndexFor(i system.AgentID) (*spaceIndex, error) {
	slot := &e.m.spaces[i]
	if sx := slot.Load(); sx != nil {
		return sx, nil
	}
	sx := &spaceIndex{}
	if pa, ok := e.m.sample.(core.PartitionAssignment); ok {
		e.eng.Sweep(e.idx.NumPoints(), func(workers int) { sx.part = pa.Blocks(e.idx, i, workers) })
	}
	var err error
	if sx.part == nil {
		err = e.perPointSpaces(sx, i)
	} else {
		ps, stop := e.stopFn()
		sx.base = sx.part.RunWeightSums(stop)
		if err = ps.Err(); err == nil && sx.base == nil {
			err = e.addRows(sx, sx.part.Members) // some run meets a space twice
		}
	}
	if err != nil {
		return nil, err
	}
	return publish(slot, sx), nil
}

// perPointSpaces fills sx from one serial ProbAssignment.Space call per
// point, grouping the points by the space object they get, and each
// block's rows from its space's fibers. The ProbAssignment is the build's
// own: Space writes its cache, and the model is shared. A space whose tree
// is not in the index (a sample that breaks REQ1) gets no rows, so it
// measures 0.
func (e *Evaluator) perPointSpaces(sx *spaceIndex, i system.AgentID) error {
	prob := core.NewProbAssignment(e.m.sys, e.m.sample)
	spaceOf := make([]*measure.Space, e.idx.NumPoints())
	for id := range spaceOf {
		if id&(cancelStride-1) == 0 && id > 0 {
			if err := e.checkCancel(); err != nil {
				return err
			}
		}
		c := e.idx.PointAt(id)
		sp, err := prob.Space(i, c)
		if err != nil {
			return fmt.Errorf("Pr%d at %v: %w", i+1, c, err)
		}
		spaceOf[id] = sp
	}
	sx.part = system.PartitionBy(e.idx, 1, func(id int) *measure.Space { return spaceOf[id] })
	var sample []int32
	return e.addRows(sx, func(s int) []int32 {
		sample = sample[:0]
		spaceOf[sx.part.Members(s)[0]].EachFiber(func(_ int, fiber []system.Point) {
			for _, p := range fiber {
				if id, ok := e.idx.ID(p); ok {
					sample = append(sample, int32(id))
				}
			}
		})
		return sample
	})
}

// addRows is the one row builder: it fills sx's compressed-row table from
// sample(s), space s's sample as increasing dense IDs, split at run
// boundaries into one row per fiber. Rows of a tree without integer
// weights weigh 0. A first pass sizes the table, so filling never regrows,
// and finds whether every fiber is one point, in which case the table
// stores no fiber offsets.
func (e *Evaluator) addRows(sx *spaceIndex, sample func(s int) []int32) error {
	numSpaces := sx.part.NumBlocks()
	numIDs, numRows := 0, 0
	for s := 0; s < numSpaces; s++ {
		ids := sample(s)
		numIDs += len(ids)
		for lo := 0; lo < len(ids); lo = e.runEnd(ids, lo) {
			numRows++
		}
	}
	sx.runOff = make([]int, 1, numSpaces+1)
	sx.base = make([]uint64, numSpaces)
	if numIDs != numRows {
		sx.fibOff = make([]int, 1, numRows+1)
	}
	sx.fibIDs = make([]int32, 0, numIDs)
	sx.weight = make([]uint64, 0, numRows)
	for s := 0; s < numSpaces; s++ {
		if s&15 == 0 {
			if err := e.checkCancel(); err != nil {
				return err
			}
		}
		ids := sample(s)
		for lo := 0; lo < len(ids); {
			hi := e.runEnd(ids, lo)
			var w uint64
			p := e.idx.PointAt(int(ids[lo]))
			if weights, _, ok := p.Tree.RunWeights(); ok {
				w = weights[p.Run]
			}
			sx.fibIDs = append(sx.fibIDs, ids[lo:hi]...)
			if sx.fibOff != nil {
				sx.fibOff = append(sx.fibOff, len(sx.fibIDs))
			}
			sx.weight = append(sx.weight, w)
			sx.base[s] += w
			lo = hi
		}
		sx.runOff = append(sx.runOff, len(sx.weight))
	}
	return nil
}

// runEnd returns the end of the fiber starting at ids[lo]: runs are
// contiguous ID ranges.
func (e *Evaluator) runEnd(ids []int32, lo int) int {
	p := e.idx.PointAt(int(ids[lo]))
	end := int(ids[lo]) - p.Time + p.Tree.RunLen(p.Run) // one past the run's last ID
	hi := lo + 1
	for hi < len(ids) && int(ids[hi]) < end {
		hi++
	}
	return hi
}

// fiber returns row k's fiber, the dense IDs of its run's sample points.
func (sx *spaceIndex) fiber(k int) []int32 {
	if sx.fibOff == nil {
		return sx.fibIDs[k : k+1]
	}
	return sx.fibIDs[sx.fibOff[k]:sx.fibOff[k+1]]
}

// rowBit returns 1 when row k's run counts toward the inner measure of ext
// (geq: its fiber lies inside ext, the AND of the fiber's bits) or the
// outer one (!geq: it meets ext, their OR), and 0 otherwise.
func (sx *spaceIndex) rowBit(k int, ext *system.DenseSet, geq bool) uint64 {
	ids := sx.fiber(k)
	c := ext.Bit(int(ids[0]))
	for _, id := range ids[1:] {
		if geq {
			c &= ext.Bit(int(id))
		} else {
			c |= ext.Bit(int(id))
		}
	}
	return c
}

// rowWeight sums, over space s's rows, the weights of the runs that count
// toward the inner measure of ext (geq: the fiber lies inside ext) or the
// outer one (!geq: it meets ext). Each row adds weight[k] & -rowBit, so no
// row branches on its verdict; a table of one-point fibers reads each
// row's one bit directly.
func (sx *spaceIndex) rowWeight(s int, ext *system.DenseSet, geq bool) uint64 {
	var w uint64
	lo, hi := sx.runOff[s], sx.runOff[s+1]
	if sx.fibOff == nil {
		weight := sx.weight[lo:hi]
		for k, id := range sx.fibIDs[lo:hi] {
			w += weight[k] & -ext.Bit(int(id))
		}
		return w
	}
	for k := lo; k < hi; k++ {
		w += sx.weight[k] & -sx.rowBit(k, ext, geq)
	}
	return w
}

// intVerdict decides Pr ≥ num/den (geq) or Pr ≤ num/den (!geq) for a space
// whose runs in ext weigh w out of base: one exact 128-bit
// cross-multiplication decides w·den ⋈ num·base.
func intVerdict(w, base, num, den uint64, geq bool) bool {
	lhi, llo := bits.Mul64(w, den)
	rhi, rlo := bits.Mul64(num, base)
	if lhi == rhi && llo == rlo {
		return true
	}
	greater := lhi > rhi || (lhi == rhi && llo > rlo)
	return greater == geq
}

// exactVerdict is intVerdict in exact rationals, summing Tree.RunProb over
// space s's runs: its members on a table of blocks, its rows otherwise. A
// space with no runs measures every set as 0.
func (sx *spaceIndex) exactVerdict(x *system.Index, s int, ext *system.DenseSet, bound rat.Rat, geq bool) bool {
	w, base := rat.Zero, rat.Zero
	add := func(id int32, in bool) {
		p := x.PointAt(int(id))
		pr := p.Tree.RunProb(p.Run)
		base = base.Add(pr)
		if in {
			w = w.Add(pr)
		}
	}
	if sx.runOff == nil {
		for _, id := range sx.part.Members(s) {
			add(id, ext.Contains(int(id)))
		}
	} else {
		for k := sx.runOff[s]; k < sx.runOff[s+1]; k++ {
			add(sx.fiber(k)[0], sx.rowBit(k, ext, geq) == 1)
		}
	}
	if !base.IsZero() {
		w = w.Div(base)
	}
	if geq {
		return w.GreaterEq(bound)
	}
	return w.LessEq(bound)
}

// prExtension computes {c : inner measure of S_ic ∩ ext ≥ α} (geq) or
// {c : outer measure ≤ α} (leq) in two phases: one measure verdict per
// space (phase A, parallel over spaces), then the space partition's
// fan-out of the verdicts to the points (phase B, Partition.Spread, which
// writes only the smaller of the passing and failing sides). Phase A
// decides a space on intVerdict when its tree has integer run weights and
// the bound fits uint64 parts, and on the exact-rational exactVerdict
// otherwise. On a table of blocks, every space's weight in ext comes from
// one Partition.WeightIn pass over ext's words, where inner and outer
// measure agree; a table of rows walks each space's own rows. Nothing is
// memoized across calls.
func (e *Evaluator) prExtension(i system.AgentID, ext *system.DenseSet, bound rat.Rat, geq bool) (*system.DenseSet, error) {
	if e.m.sample == nil {
		return nil, ErrNoProbability
	}
	sx, err := e.spaceIndexFor(i)
	if err != nil {
		return nil, err
	}
	num, den, intBound := bound.Frac64()
	verdicts := make([]bool, len(sx.base))
	ps, stop := e.stopFn()
	var out *system.DenseSet
	e.eng.Sweep(e.idx.NumPoints(), func(workers int) {
		var sums []uint64
		if intBound && sx.runOff == nil {
			sums = sx.part.WeightIn(ext, sx.base, workers, stop)
		}
		system.ParFill(verdicts, workers, func(_ int, part []bool, lo int) {
			for j := range part {
				si := lo + j
				if stop != nil && si&15 == 0 && stop() {
					return
				}
				switch {
				case !intBound || sx.base[si] == 0:
					part[j] = sx.exactVerdict(e.idx, si, ext, bound, geq)
				case sums != nil:
					part[j] = intVerdict(sums[si], sx.base[si], num, den, geq)
				default:
					part[j] = intVerdict(sx.rowWeight(si, ext, geq), sx.base[si], num, den, geq)
				}
			}
		})
		out = sx.part.Spread(verdicts, workers, stop)
	})
	if err := ps.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// everyoneExtension computes E_G's extension, ⋂_{i∈G} K_i(ext), in one
// set (system.Index.Everyone). The group is non-empty (checkGroupIn).
func (e *Evaluator) everyoneExtension(group []system.AgentID, ext *system.DenseSet) (*system.DenseSet, error) {
	exts := make([]*system.DenseSet, len(group))
	for k := range exts {
		exts[k] = ext
	}
	return e.everyone(group, exts)
}

// everyonePrExtension computes E_G^α's extension,
// ⋂_{i∈G} K_i(Pr_i(ext) ≥ α), as everyoneExtension does.
func (e *Evaluator) everyonePrExtension(group []system.AgentID, ext *system.DenseSet, alpha rat.Rat) (*system.DenseSet, error) {
	exts := make([]*system.DenseSet, len(group))
	for k, i := range group {
		pr, err := e.prExtension(i, ext, alpha, true)
		if err != nil {
			return nil, err
		}
		exts[k] = pr
	}
	return e.everyone(group, exts)
}

// everyone runs system.Index.Everyone, ⋂_k K_{group[k]}(exts[k]), on the
// evaluator's workers.
func (e *Evaluator) everyone(group []system.AgentID, exts []*system.DenseSet) (*system.DenseSet, error) {
	ps, stop := e.stopFn()
	var out *system.DenseSet
	e.eng.Sweep(e.idx.NumPoints(), func(workers int) {
		out = e.idx.Everyone(group, exts, workers, stop)
	})
	if err := ps.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
