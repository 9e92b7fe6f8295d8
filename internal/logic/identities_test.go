package logic

import (
	"math/rand"
	"strconv"
	"testing"

	"kpa/internal/core"
	"kpa/internal/gen"
	"kpa/internal/rat"
	"kpa/internal/system"
)

// TestIdentities checks identities of the logic that hold in every system,
// so the dense engine can be held to them at sizes the reference evaluator
// cannot reach. For every agent i, group G, formula φ and bound α:
//
//   - duality: Pr_i(φ) ≥ α and Pr_i(¬φ) ≤ 1−α have one extension, which
//     pits the inner-measure path against the outer one;
//   - truth: K_i φ ⊆ φ;
//   - consistency: K_i φ ⊆ Pr_i(φ) ≥ 1 under every consistent assignment
//     (§6): post, opp, fut and the per-point ones, and prior where it
//     happens to be consistent;
//   - antitonicity: raising α never adds points to Pr_i(φ) ≥ α;
//   - fixpoints: C_G φ = E_G(φ ∧ C_G φ), X = C_G^α φ satisfies
//     X = E_G^α(φ ∧ X), and E_G^α φ = ⋂_{i∈G} K_i(Pr_i(φ) ≥ α).
//
// Tomović, Ognjanović and Doder axiomatise this logic; these are instances
// of their axioms and rules. The fixtures are every kind of gen system
// (random synchronous and asynchronous ones, a scale broom, the chain)
// under the six sampleAssignments, and, outside -short, the 100k scale
// tier under the four canonical ones. A first evaluator warms each model
// and a second one checks the identities over it.
func TestIdentities(t *testing.T) {
	type fixture struct {
		name    string
		sys     *system.System
		phis    []Formula
		props   map[string]system.Fact
		assigns []core.SampleAssignment
		groups  [][]system.AgentID
	}
	var fixtures []fixture
	cfgs := []gen.Config{
		gen.DefaultConfig(),
		{NumAgents: 3, NumTrees: 2, MaxDepth: 3, MaxBranch: 3, Synchronous: true, ObservationLevels: true},
		{NumAgents: 3, NumTrees: 2, MaxDepth: 3, MaxBranch: 3, Synchronous: false, ObservationLevels: true},
		{NumAgents: 2, NumTrees: 3, MaxDepth: 4, MaxBranch: 2, Synchronous: false, ObservationLevels: true},
		{NumAgents: 1, NumTrees: 2, MaxDepth: 3, MaxBranch: 3, Synchronous: true, ObservationLevels: true},
	}
	mixed := Or(Prop("p0"), Eventually(Prop("p1")))
	for s := 0; s < 10; s++ {
		rng := rand.New(rand.NewSource(int64(2600 + s)))
		sys := gen.MustSystem(rng, cfgs[s%len(cfgs)])
		props := map[string]system.Fact{
			"p0": gen.RandomFact(rng, sys, "p0"),
			"p1": gen.RandomRunFact(rng, sys, "p1"),
		}
		fixtures = append(fixtures, fixture{"seed " + strconv.Itoa(2600+s), sys,
			[]Formula{Prop("p0"), mixed}, props, sampleAssignments(sys), allGroups(sys)})
	}
	scale := gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 3, NumRuns: 64, RunLen: 4, Buckets: 4})
	fixtures = append(fixtures, fixture{"scale", scale, []Formula{Prop("p0"), mixed},
		map[string]system.Fact{"p0": gen.ScaleFact("p0", 3), "p1": gen.ScaleFact("p1", 64)},
		sampleAssignments(scale), allGroups(scale)})
	chain := gen.MustChainSystem(41)
	fixtures = append(fixtures, fixture{"chain", chain, []Formula{Prop("p0"), mixed},
		map[string]system.Fact{"p0": gen.ChainFact("p0"), "p1": gen.ScaleFact("p1", 5)},
		sampleAssignments(chain), allGroups(chain)})
	if !testing.Short() {
		tier := gen.MustScaleSystem(gen.ScaleTiers["100k"])
		all := tier.Agents()
		fixtures = append(fixtures, fixture{"100k", tier,
			[]Formula{Prop("p"), Or(Prop("p"), Next(Prop("q")))},
			map[string]system.Fact{"p": gen.ScaleFact("p", 3), "q": gen.ScaleFact("q", 5)},
			sampleAssignments(tier)[:4], [][]system.AgentID{all, all[:1], all[1:]}})
	}

	for _, fx := range fixtures {
		for _, sa := range fx.assigns {
			label := fx.name + " " + sa.Name()
			// Every assignment but prior samples inside the agent's cell
			// (S^fut ≤ S^j ≤ S^post); prior may too, on a small system.
			consistent := sa.Name() != "prior"
			if fx.sys.NumPoints() < 1000 {
				if consistent && !core.IsConsistent(fx.sys, sa) {
					t.Fatalf("%s: the assignment is not consistent", label)
				}
				consistent = core.IsConsistent(fx.sys, sa)
			}
			m := NewModel(fx.sys, core.NewProbAssignment(fx.sys, sa), fx.props)
			warm := m.NewEvaluator()
			for _, phi := range fx.phis {
				for _, i := range fx.sys.Agents() {
					if _, err := warm.DenseExtension(PrGeq(i, phi, rat.Half)); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
			}
			checkIdentities(t, label, m.NewEvaluator(), fx.phis, fx.groups, consistent)
		}
	}
}

// checkIdentities checks TestIdentities' identities on e for each formula
// in phis and each group in groups, and consistency when consistent.
func checkIdentities(t *testing.T, label string, e *Evaluator, phis []Formula, groups [][]system.AgentID, consistent bool) {
	t.Helper()
	ext := func(f Formula) *system.DenseSet {
		t.Helper()
		d, err := e.DenseExtension(f)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, f, err)
		}
		return d
	}
	subset := func(law string, a, b Formula) {
		t.Helper()
		if x := ext(a); !x.Intersect(ext(b), 1).Equal(x) {
			t.Fatalf("%s: %s fails: %s ⊄ %s", label, law, a, b)
		}
	}
	equal := func(law string, a, b Formula) {
		t.Helper()
		if !ext(a).Equal(ext(b)) {
			t.Fatalf("%s: %s fails: %s ≠ %s", label, law, a, b)
		}
	}
	alphas := []rat.Rat{rat.Zero, rat.New(1, 3), rat.Half, rat.New(2, 3), rat.One}
	for _, phi := range phis {
		for _, i := range e.System().Agents() {
			subset("truth", K(i, phi), phi)
			if consistent {
				subset("consistency", K(i, phi), PrGeq(i, phi, rat.One))
			}
			for k, a := range alphas {
				equal("duality", PrGeq(i, phi, a), PrLeq(i, Not(phi), rat.One.Sub(a)))
				if k > 0 {
					subset("antitonicity", PrGeq(i, phi, a), PrGeq(i, phi, alphas[k-1]))
				}
			}
		}
		for _, g := range groups {
			c := Common(g, phi)
			equal("the C_G fixpoint", c, Everyone(g, And(phi, c)))
			for _, a := range alphas {
				x := CommonPr(g, phi, a)
				equal("the C_G^α fixpoint", x, EveryonePr(g, And(phi, x), a))
				meet := K(g[0], PrGeq(g[0], phi, a))
				for _, i := range g[1:] {
					meet = And(meet, K(i, PrGeq(i, phi, a)))
				}
				equal("E_G^α as a meet", EveryonePr(g, phi, a), meet)
			}
		}
	}
}
