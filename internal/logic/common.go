package logic

import (
	"kpa/internal/rat"
	"kpa/internal/system"
)

// This file provides the common-knowledge proof-theory helpers of Section 8:
// the fixed-point axiom, the induction rule, iterated E_G^k operators, and
// the finite-model characterization C_G φ = ⋀_k (E_G)^k φ.

// EveryoneIter returns (E_G)^k φ: "everyone knows" applied k times. k = 0
// returns φ itself.
func EveryoneIter(group []system.AgentID, phi Formula, k int) Formula {
	out := phi
	for i := 0; i < k; i++ {
		out = Everyone(group, out)
	}
	return out
}

// FixedPointHolds checks the fixed-point axiom C_G φ ≡ E_G(φ ∧ C_G φ) as a
// validity of the system (it is valid in every system; this is a
// mechanical verification hook, used by tests and available to users
// exploring their own models).
func (e *Evaluator) FixedPointHolds(group []system.AgentID, phi Formula) (bool, error) {
	c := Common(group, phi)
	return e.Valid(Iff(c, Everyone(group, And(phi, c))))
}

// FixedPointPrHolds checks the probabilistic fixed-point property
// C_G^α φ → E_G^α(φ ∧ C_G^α φ) as a validity.
func (e *Evaluator) FixedPointPrHolds(group []system.AgentID, phi Formula, alpha rat.Rat) (bool, error) {
	c := CommonPr(group, phi, alpha)
	return e.Valid(Implies(c, EveryonePr(group, And(phi, c), alpha)))
}

// InductionRuleHolds checks an instance of the induction rule: if
// ψ → E_G(ψ ∧ φ) is valid, then ψ → C_G φ is valid. It returns
// (premiseValid, conclusionValid, ruleRespected): the rule is respected
// when premiseValid implies conclusionValid.
func (e *Evaluator) InductionRuleHolds(group []system.AgentID, psi, phi Formula) (premise, conclusion, respected bool, err error) {
	premise, err = e.Valid(Implies(psi, Everyone(group, And(psi, phi))))
	if err != nil {
		return false, false, false, err
	}
	conclusion, err = e.Valid(Implies(psi, Common(group, phi)))
	if err != nil {
		return false, false, false, err
	}
	return premise, conclusion, !premise || conclusion, nil
}

// CommonByIteration computes the extension of ⋀_{k≥1} (E_G)^k φ by
// iterating E_G until the extension stabilizes. On finite systems this
// coincides with the greatest-fixed-point C_G φ (the paper notes the two
// definitions can differ in general, but they agree here; tests check the
// agreement).
func (e *Evaluator) CommonByIteration(group []system.AgentID, phi Formula) (system.PointSet, error) {
	if err := checkGroupIn(e.sys, group); err != nil {
		return nil, err
	}
	sub, err := e.DenseExtension(phi)
	if err != nil {
		return nil, err
	}
	// cur_k = extension of (E_G)^k φ; conj accumulates the intersection.
	// The sequence cur_k lives in a finite lattice, so it eventually
	// cycles; once a repeat is detected every future value has already
	// been intersected into conj. Dense bit patterns double as the cheap
	// cycle-detection signature.
	cur, err := e.everyoneExtension(group, sub)
	if err != nil {
		return nil, err
	}
	conj := cur
	seen := map[string]bool{cur.Key(): true}
	for {
		cur, err = e.everyoneExtension(group, cur)
		if err != nil {
			return nil, err
		}
		conj = e.intersectPar(conj, cur)
		s := cur.Key()
		if seen[s] {
			return conj.PointSet(), nil
		}
		seen[s] = true
	}
}
