// Package logic implements the language L(Φ) of Section 5 and the
// common-knowledge operators of Section 8: primitive propositions closed
// under boolean connectives, the knowledge operators K_i, probability
// formulas Pr_i(φ) ≥ α, the linear-time temporal operators next (X) and
// until (U) with the derived eventually (F) and henceforth (G), the group
// operators E_G and C_G, and their probabilistic counterparts E_G^α and
// C_G^α (greatest fixed points).
//
// Formulas are built programmatically (the constructors below) or parsed
// from a compact ASCII syntax (Parse). An Evaluator model-checks formulas
// over a finite system together with a probability assignment.
package logic

import (
	"fmt"
	"sort"
	"strings"

	"kpa/internal/rat"
	"kpa/internal/system"
)

// Formula is a formula of L(Φ). Formulas are immutable trees; all nodes are
// pointers so evaluators can memoize extensions by node identity.
type Formula interface {
	// String renders the formula in the parseable ASCII syntax.
	String() string
	isFormula()
}

// PropFormula is a primitive proposition, resolved against the evaluator's
// proposition table.
type PropFormula struct{ Name string }

// BoolFormula is a boolean constant.
type BoolFormula struct{ Value bool }

// NotFormula is ¬φ.
type NotFormula struct{ Sub Formula }

// AndFormula is φ ∧ ψ.
type AndFormula struct{ Left, Right Formula }

// OrFormula is φ ∨ ψ.
type OrFormula struct{ Left, Right Formula }

// ImpliesFormula is φ → ψ.
type ImpliesFormula struct{ Left, Right Formula }

// NextFormula is ◯φ: φ holds at the next point of the run. At the final
// point of a finite run it is false (there is no next point).
type NextFormula struct{ Sub Formula }

// UntilFormula is φ U ψ: ψ holds at some later-or-current point of the run
// and φ holds until then.
type UntilFormula struct{ Left, Right Formula }

// EventuallyFormula is ◇φ = true U φ.
type EventuallyFormula struct{ Sub Formula }

// AlwaysFormula is □φ = ¬◇¬φ: φ holds now and at every later point of the
// (finite) run.
type AlwaysFormula struct{ Sub Formula }

// KnowFormula is K_i φ.
type KnowFormula struct {
	Agent system.AgentID
	Sub   Formula
}

// PrGeqFormula is Pr_i(φ) ≥ α, interpreted via inner measure:
// (μ_ic)_*(S_ic(φ)) ≥ α.
type PrGeqFormula struct {
	Agent system.AgentID
	Alpha rat.Rat
	Sub   Formula
}

// PrLeqFormula is Pr_i(φ) ≤ β, interpreted via outer measure:
// (μ_ic)*(S_ic(φ)) ≤ β. (Equivalently Pr_i(¬φ) ≥ 1−β.)
type PrLeqFormula struct {
	Agent system.AgentID
	Beta  rat.Rat
	Sub   Formula
}

// EveryoneFormula is E_G φ = ∧_{i∈G} K_i φ.
type EveryoneFormula struct {
	Group []system.AgentID
	Sub   Formula
}

// CommonFormula is C_G φ: the greatest fixed point of X ≡ E_G(φ ∧ X).
type CommonFormula struct {
	Group []system.AgentID
	Sub   Formula
}

// EveryonePrFormula is E_G^α φ = ∧_{i∈G} K_i^α φ, with
// K_i^α φ = K_i(Pr_i(φ) ≥ α).
type EveryonePrFormula struct {
	Group []system.AgentID
	Alpha rat.Rat
	Sub   Formula
}

// CommonPrFormula is C_G^α φ: the greatest fixed point of X ≡ E_G^α(φ ∧ X)
// (the probabilistic common knowledge of [FH88], Section 8).
type CommonPrFormula struct {
	Group []system.AgentID
	Alpha rat.Rat
	Sub   Formula
}

func (*PropFormula) isFormula()       {}
func (*BoolFormula) isFormula()       {}
func (*NotFormula) isFormula()        {}
func (*AndFormula) isFormula()        {}
func (*OrFormula) isFormula()         {}
func (*ImpliesFormula) isFormula()    {}
func (*NextFormula) isFormula()       {}
func (*UntilFormula) isFormula()      {}
func (*EventuallyFormula) isFormula() {}
func (*AlwaysFormula) isFormula()     {}
func (*KnowFormula) isFormula()       {}
func (*PrGeqFormula) isFormula()      {}
func (*PrLeqFormula) isFormula()      {}
func (*EveryoneFormula) isFormula()   {}
func (*CommonFormula) isFormula()     {}
func (*EveryonePrFormula) isFormula() {}
func (*CommonPrFormula) isFormula()   {}

// Constructors. Agents are named 1-based in the concrete syntax (K1 is
// agent p_1, i.e. system.AgentID 0) but the Go API uses AgentIDs directly.
//
// Every call returns a fresh node. Evaluator memos are keyed by node
// identity, so a node shared by pointer is evaluated once; a separately
// built copy of the same formula is evaluated again.

// Prop returns the primitive proposition with the given name.
func Prop(name string) Formula { return &PropFormula{Name: name} }

// True and False are the boolean constants.
var (
	True  Formula = &BoolFormula{Value: true}
	False Formula = &BoolFormula{Value: false}
)

// Not returns ¬φ.
func Not(phi Formula) Formula { return &NotFormula{Sub: phi} }

// And returns the conjunction of the arguments (true for none).
func And(phis ...Formula) Formula {
	if len(phis) == 0 {
		return True
	}
	out := phis[0]
	for _, phi := range phis[1:] {
		out = &AndFormula{Left: out, Right: phi}
	}
	return out
}

// Or returns the disjunction of the arguments (false for none).
func Or(phis ...Formula) Formula {
	if len(phis) == 0 {
		return False
	}
	out := phis[0]
	for _, phi := range phis[1:] {
		out = &OrFormula{Left: out, Right: phi}
	}
	return out
}

// Implies returns φ → ψ.
func Implies(phi, psi Formula) Formula { return &ImpliesFormula{Left: phi, Right: psi} }

// Iff returns (φ → ψ) ∧ (ψ → φ).
func Iff(phi, psi Formula) Formula {
	return And(Implies(phi, psi), Implies(psi, phi))
}

// Next returns ◯φ.
func Next(phi Formula) Formula { return &NextFormula{Sub: phi} }

// Until returns φ U ψ.
func Until(phi, psi Formula) Formula { return &UntilFormula{Left: phi, Right: psi} }

// Eventually returns ◇φ.
func Eventually(phi Formula) Formula { return &EventuallyFormula{Sub: phi} }

// Always returns □φ.
func Always(phi Formula) Formula { return &AlwaysFormula{Sub: phi} }

// K returns K_i φ.
func K(i system.AgentID, phi Formula) Formula { return &KnowFormula{Agent: i, Sub: phi} }

// PrGeq returns Pr_i(φ) ≥ α.
func PrGeq(i system.AgentID, phi Formula, alpha rat.Rat) Formula {
	return &PrGeqFormula{Agent: i, Alpha: alpha, Sub: phi}
}

// PrLeq returns Pr_i(φ) ≤ β.
func PrLeq(i system.AgentID, phi Formula, beta rat.Rat) Formula {
	return &PrLeqFormula{Agent: i, Beta: beta, Sub: phi}
}

// KPr returns K_i^α φ = K_i(Pr_i(φ) ≥ α).
func KPr(i system.AgentID, phi Formula, alpha rat.Rat) Formula {
	return K(i, PrGeq(i, phi, alpha))
}

// KInterval returns K_i^[α,β] φ = K_i((Pr_i(φ) ≥ α) ∧ (Pr_i(¬φ) ≥ 1−β)),
// the interval operator of Theorem 9.
func KInterval(i system.AgentID, phi Formula, alpha, beta rat.Rat) Formula {
	return K(i, And(PrGeq(i, phi, alpha), PrGeq(i, Not(phi), rat.One.Sub(beta))))
}

// Everyone returns E_G φ.
func Everyone(group []system.AgentID, phi Formula) Formula {
	return &EveryoneFormula{Group: normalizeGroup(group), Sub: phi}
}

// Common returns C_G φ.
func Common(group []system.AgentID, phi Formula) Formula {
	return &CommonFormula{Group: normalizeGroup(group), Sub: phi}
}

// EveryonePr returns E_G^α φ.
func EveryonePr(group []system.AgentID, phi Formula, alpha rat.Rat) Formula {
	return &EveryonePrFormula{Group: normalizeGroup(group), Alpha: alpha, Sub: phi}
}

// CommonPr returns C_G^α φ.
func CommonPr(group []system.AgentID, phi Formula, alpha rat.Rat) Formula {
	return &CommonPrFormula{Group: normalizeGroup(group), Alpha: alpha, Sub: phi}
}

func normalizeGroup(group []system.AgentID) []system.AgentID {
	out := make([]system.AgentID, len(group))
	copy(out, group)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// --- rendering ---

func (f *PropFormula) String() string { return f.Name }

func (f *BoolFormula) String() string {
	if f.Value {
		return "true"
	}
	return "false"
}

func (f *NotFormula) String() string     { return "!" + paren(f.Sub) }
func (f *AndFormula) String() string     { return paren(f.Left) + " & " + paren(f.Right) }
func (f *OrFormula) String() string      { return paren(f.Left) + " | " + paren(f.Right) }
func (f *ImpliesFormula) String() string { return paren(f.Left) + " -> " + paren(f.Right) }
func (f *NextFormula) String() string    { return "X " + paren(f.Sub) }
func (f *UntilFormula) String() string   { return paren(f.Left) + " U " + paren(f.Right) }

func (f *EventuallyFormula) String() string { return "F " + paren(f.Sub) }
func (f *AlwaysFormula) String() string     { return "G " + paren(f.Sub) }

func (f *KnowFormula) String() string {
	return fmt.Sprintf("K%d %s", f.Agent+1, paren(f.Sub))
}

func (f *PrGeqFormula) String() string {
	return fmt.Sprintf("Pr%d(%s) >= %s", f.Agent+1, f.Sub, f.Alpha)
}

func (f *PrLeqFormula) String() string {
	return fmt.Sprintf("Pr%d(%s) <= %s", f.Agent+1, f.Sub, f.Beta)
}

func groupString(g []system.AgentID) string {
	parts := make([]string, len(g))
	for i, a := range g {
		parts[i] = fmt.Sprintf("%d", a+1)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func (f *EveryoneFormula) String() string {
	return "E" + groupString(f.Group) + " " + paren(f.Sub)
}

func (f *CommonFormula) String() string {
	return "C" + groupString(f.Group) + " " + paren(f.Sub)
}

func (f *EveryonePrFormula) String() string {
	return "E" + groupString(f.Group) + "^" + f.Alpha.String() + " " + paren(f.Sub)
}

func (f *CommonPrFormula) String() string {
	return "C" + groupString(f.Group) + "^" + f.Alpha.String() + " " + paren(f.Sub)
}

// paren wraps compound subformulas in parentheses for unambiguous output.
func paren(f Formula) string {
	switch f.(type) {
	case *PropFormula, *BoolFormula, *NotFormula:
		return f.String()
	default:
		return "(" + f.String() + ")"
	}
}
