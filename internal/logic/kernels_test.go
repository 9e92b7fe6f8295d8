package logic

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"kpa/internal/core"
	"kpa/internal/gen"
	"kpa/internal/rat"
	"kpa/internal/system"
)

// allGroups returns every non-empty group of the system's agents.
func allGroups(sys *system.System) [][]system.AgentID {
	var out [][]system.AgentID
	for mask := 1; mask < 1<<sys.NumAgents(); mask++ {
		var g []system.AgentID
		for i := 0; i < sys.NumAgents(); i++ {
			if mask&(1<<i) != 0 {
				g = append(g, system.AgentID(i))
			}
		}
		out = append(out, g)
	}
	return out
}

// TestCommonCellsMatchFixpoint checks C_G's component form against the
// paper's greatest fixpoint, X = E_G(φ ∧ X) in ReferenceEvaluator, and
// against the iterated conjunction CommonByIteration, on every kind of gen
// system (random synchronous and asynchronous ones with one to three
// agents, a scale broom and the chain) and every non-empty group, serially
// and with the parallel engine forced on. The dense evaluation must spin
// no fixpoint round.
func TestCommonCellsMatchFixpoint(t *testing.T) {
	type fixture struct {
		name  string
		sys   *system.System
		props map[string]system.Fact
	}
	var fixtures []fixture
	cfgs := []gen.Config{
		gen.DefaultConfig(),
		{NumAgents: 3, NumTrees: 2, MaxDepth: 3, MaxBranch: 3, Synchronous: true, ObservationLevels: true},
		{NumAgents: 3, NumTrees: 2, MaxDepth: 3, MaxBranch: 3, Synchronous: false, ObservationLevels: true},
		{NumAgents: 2, NumTrees: 3, MaxDepth: 4, MaxBranch: 2, Synchronous: false, ObservationLevels: true},
		{NumAgents: 1, NumTrees: 2, MaxDepth: 3, MaxBranch: 3, Synchronous: true, ObservationLevels: true},
	}
	for s := 0; s < 20; s++ {
		rng := rand.New(rand.NewSource(int64(2400 + s)))
		sys := gen.MustSystem(rng, cfgs[s%len(cfgs)])
		props := map[string]system.Fact{
			"p0": gen.RandomFact(rng, sys, "p0"),
			"p1": gen.RandomRunFact(rng, sys, "p1"),
		}
		fixtures = append(fixtures, fixture{"seed " + strconv.Itoa(2400+s), sys, props})
	}
	scale := gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 3, NumRuns: 64, RunLen: 4, Buckets: 4})
	fixtures = append(fixtures, fixture{"scale", scale, map[string]system.Fact{
		"p0": gen.ScaleFact("p0", 3), "p1": gen.ScaleFact("p1", 64)}})
	chain := gen.MustChainSystem(41)
	fixtures = append(fixtures, fixture{"chain", chain, map[string]system.Fact{
		"p0": gen.ChainFact("p0"), "p1": gen.ScaleFact("p1", 5)}})

	for _, parallel := range []bool{false, true} {
		if parallel {
			defer forceParallel()()
		}
		for _, fx := range fixtures {
			dense := NewEvaluator(fx.sys, nil, fx.props)
			eng := NewEngine(1)
			if parallel {
				eng = NewEngine(4)
			}
			dense.SetEngine(eng)
			naive := NewReferenceEvaluator(fx.sys, nil, fx.props)
			for _, g := range allGroups(fx.sys) {
				for _, phi := range []Formula{Prop("p0"), Prop("p1"), Or(Prop("p0"), Eventually(Prop("p1"))), True} {
					f := Common(g, phi)
					label := fmt.Sprintf("%s parallel=%v %s", fx.name, parallel, f)
					want, err := naive.Extension(f)
					if err != nil {
						t.Fatal(err)
					}
					got, err := dense.Extension(f)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("%s: component form differs from the fixpoint", label)
					}
					iter, err := dense.CommonByIteration(g, phi)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(iter) {
						t.Fatalf("%s: component form differs from the iterated conjunction", label)
					}
				}
			}
			if rounds := eng.ShardRounds.Load(); rounds != 0 {
				t.Fatalf("%s parallel=%v: C_G spun %d fixpoint rounds", fx.name, parallel, rounds)
			}
		}
	}
}

// halfDensityBroom is a synchronous broom of runs runs of runLen points
// whose run r has weight 1 + r mod 5, over three agents that each see the
// time and one of buckets values drawn per point, so cells span runs of
// unequal weight.
func halfDensityBroom(t *testing.T, rng *rand.Rand, runs, runLen, buckets int) *system.System {
	t.Helper()
	total := 0
	for r := 0; r < runs; r++ {
		total += 1 + r%5
	}
	locals := func(k int) []system.LocalState {
		out := make([]system.LocalState, 3)
		for i := range out {
			out[i] = system.LocalState(fmt.Sprintf("a%d:t%d:b%d", i, k, rng.Intn(buckets)))
		}
		return out
	}
	tb := system.NewTree("broom", system.GlobalState{Env: "root", Locals: []system.LocalState{"a0", "a1", "a2"}})
	for r := 0; r < runs; r++ {
		id := tb.Child(0, rat.New(int64(1+r%5), int64(total)), system.GlobalState{Env: fmt.Sprintf("r%d.1", r), Locals: locals(1)})
		for k := 2; k < runLen; k++ {
			id = tb.Child(id, rat.One, system.GlobalState{Env: fmt.Sprintf("r%d.%d", r, k), Locals: locals(k)})
		}
	}
	sys, err := system.New(3, tb.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// exactlyFact returns a fact that holds at exactly size points of sys,
// drawn at random.
func exactlyFact(rng *rand.Rand, sys *system.System, name string, size int) system.Fact {
	idx := sys.Index()
	holds := make(map[system.Point]bool, size)
	for _, id := range rng.Perm(idx.NumPoints())[:size] {
		holds[idx.PointAt(id)] = true
	}
	return system.NewFact(name, func(p system.Point) bool { return holds[p] })
}

// knifeEdges returns the distinct inner and outer measures of phi that
// agent i's spaces take at a spread of points: bounds a space's measure
// equals, where Pr ≥ and Pr ≤ must both hold.
func knifeEdges(t *testing.T, P *core.ProbAssignment, i system.AgentID, phi system.Fact, limit int) []rat.Rat {
	t.Helper()
	idx := P.System().Index()
	seen := make(map[string]bool)
	var out []rat.Rat
	for id := 0; id < idx.NumPoints() && len(out) < limit; id += 7 {
		lo, hi, err := P.SharpInterval(i, idx.PointAt(id), phi)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []rat.Rat{lo, hi} {
			if !seen[b.Key()] {
				seen[b.Key()] = true
				out = append(out, b)
			}
		}
	}
	return out
}

// TestPrSmallerSide pins the Pr kernel on both sides of its switch: on
// tables whose spaces are blocks with one point per run, Partition.WeightIn
// sums the extension's points when it holds at most half the universe and
// its complement's otherwise. Extensions one point below and one above
// half are checked against ReferenceEvaluator at knife-edge bounds, under
// the four canonical assignments, serially and with the parallel engine
// forced on. A tree without integer run weights must still decide every
// space on exactVerdict, on the same one-point table shape.
func TestPrSmallerSide(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	sys := halfDensityBroom(t, rng, 60, 5, 6)
	n := sys.Index().NumPoints()
	for _, parallel := range []bool{false, true} {
		if parallel {
			defer forceParallel()()
		}
		for _, size := range []int{n/2 - 1, n/2 + 1} {
			props := map[string]system.Fact{"p": exactlyFact(rng, sys, "p", size)}
			for _, sa := range sampleAssignments(sys)[:4] {
				label := fmt.Sprintf("parallel=%v %d of %d points/%s", parallel, size, n, sa.Name())
				P := core.NewProbAssignment(sys, sa)
				dense := NewEvaluator(sys, P, props)
				if parallel {
					dense.SetEngine(NewEngine(4))
				}
				naive := NewReferenceEvaluator(sys, P, props)
				edges := 0
				for i := system.AgentID(0); i < 3; i++ {
					sx, err := dense.spaceIndexFor(i)
					if err != nil {
						t.Fatal(err)
					}
					if sx.runOff != nil {
						t.Fatalf("%s agent %d: a synchronous table kept rows", label, i)
					}
					for _, b := range knifeEdges(t, P, i, props["p"], 24) {
						geq, leq := PrGeq(i, Prop("p"), b), PrLeq(i, Prop("p"), b)
						for _, f := range []Formula{geq, leq} {
							want, err := naive.Extension(f)
							if err != nil {
								t.Fatal(err)
							}
							got, err := dense.Extension(f)
							if err != nil {
								t.Fatal(err)
							}
							if !got.Equal(want) {
								t.Fatalf("%s formula %s: dense extension differs from reference", label, f)
							}
						}
						g, _ := dense.DenseExtension(geq)
						l, _ := dense.DenseExtension(leq)
						if !g.Intersect(l, 1).IsEmpty() {
							edges++
						}
					}
				}
				if edges == 0 {
					t.Fatalf("%s: no bound was a knife edge", label)
				}
			}
		}
	}

	// The prime tree has no integer weights; its agent 1 sees the clock,
	// so under post its table is one point per run and every base is 0.
	prime := primeTreeSystem(t)
	pn := prime.Index().NumPoints()
	for _, size := range []int{pn/2 - 1, pn/2 + 1} {
		props := map[string]system.Fact{"p": exactlyFact(rng, prime, "p", size)}
		P := core.NewProbAssignment(prime, core.Post(prime))
		dense := NewEvaluator(prime, P, props)
		sx, err := dense.spaceIndexFor(0)
		if err != nil {
			t.Fatal(err)
		}
		if sx.runOff != nil {
			t.Fatal("prime tree, agent 1: a table with a clock kept rows")
		}
		for _, base := range sx.base {
			if base != 0 {
				t.Fatal("prime tree, agent 1: a space left the exact path")
			}
		}
		var formulas []Formula
		for _, b := range knifeEdges(t, P, 0, props["p"], 24) {
			formulas = append(formulas, PrGeq(0, Prop("p"), b), PrLeq(0, Prop("p"), b))
		}
		agreeWithReference(t, fmt.Sprintf("prime tree %d of %d points", size, pn), prime, P, props, formulas)
	}
}
