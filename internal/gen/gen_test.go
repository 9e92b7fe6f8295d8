package gen

import (
	"math/rand"
	"testing"

	"kpa/internal/system"
)

func TestSystemGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultConfig()
	for trial := 0; trial < 30; trial++ {
		sys := MustSystem(rng, cfg)
		if sys.NumAgents() != cfg.NumAgents || len(sys.Trees()) != cfg.NumTrees {
			t.Fatalf("trial %d: wrong shape", trial)
		}
		for _, tree := range sys.Trees() {
			if !tree.Prob(tree.AllRuns()).IsOne() {
				t.Fatalf("trial %d: run probabilities do not sum to 1", trial)
			}
			if tree.Depth() > cfg.MaxDepth {
				t.Fatalf("trial %d: depth %d exceeds max", trial, tree.Depth())
			}
		}
		if cfg.Synchronous && !sys.IsSynchronous() {
			t.Fatalf("trial %d: synchronous config produced an asynchronous system", trial)
		}
	}
}

func TestAsynchronousGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultConfig()
	cfg.Synchronous = false
	sawAsync := false
	for trial := 0; trial < 30; trial++ {
		sys := MustSystem(rng, cfg)
		if !sys.IsSynchronous() {
			sawAsync = true
		}
	}
	if !sawAsync {
		t.Error("no asynchronous system in 30 trials")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	ra, rb := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
	a, b := MustSystem(ra, cfg), MustSystem(rb, cfg)
	if a.Points().Len() != b.Points().Len() {
		t.Error("same seed produced different systems")
	}
	fa, fb := RandomFact(ra, a, "p"), RandomFact(rb, b, "p")
	pa, pb := a.Points().Sorted(), b.Points().Sorted()
	for i := range pa {
		if !pa[i].State().Equal(pb[i].State()) {
			t.Fatalf("point %d differs between same-seed systems", i)
		}
		if fa.Holds(pa[i]) != fb.Holds(pb[i]) {
			t.Fatalf("point %d: same-seed RandomFact facts differ", i)
		}
	}
}

func TestRandomFacts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sys := MustSystem(rng, DefaultConfig())
	phi := RandomFact(rng, sys, "phi")
	if !system.IsFactAboutState(sys, phi) {
		t.Error("RandomFact is not a fact about the global state")
	}
	rf := RandomRunFact(rng, sys, "run")
	if !system.IsFactAboutRun(sys, rf) {
		t.Error("RandomRunFact is not a fact about the run")
	}
	p := RandomPoint(rng, sys)
	if !p.IsValid() {
		t.Error("RandomPoint invalid")
	}
}

func TestConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bad := []Config{
		{NumAgents: 0, NumTrees: 1, MaxDepth: 1, MaxBranch: 2},
		{NumAgents: 1, NumTrees: 0, MaxDepth: 1, MaxBranch: 2},
		{NumAgents: 1, NumTrees: 1, MaxDepth: 0, MaxBranch: 2},
		{NumAgents: 1, NumTrees: 1, MaxDepth: 1, MaxBranch: 1},
	}
	for i, cfg := range bad {
		if _, err := System(rng, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}
