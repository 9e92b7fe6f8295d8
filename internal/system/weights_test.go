package system_test

import (
	"math/rand"
	"testing"

	"kpa/internal/gen"
	"kpa/internal/rat"
	"kpa/internal/system"
)

// TestProbMatchesRatSum checks the integer Tree.Prob against the plain
// exact-rational sum of run probabilities on random subsets of the runs of
// random generated trees, synchronous and not. Deep, wide trees can have
// a common denominator beyond 62 bits; those take the rational path, and
// the check holds there too.
func TestProbMatchesRatSum(t *testing.T) {
	weighted := 0
	cfgs := []gen.Config{
		gen.DefaultConfig(),
		{NumAgents: 2, NumTrees: 2, MaxDepth: 4, MaxBranch: 3, Synchronous: false, ObservationLevels: true},
		{NumAgents: 1, NumTrees: 1, MaxDepth: 5, MaxBranch: 4, Synchronous: true},
	}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sys := gen.MustSystem(rng, cfgs[seed%int64(len(cfgs))])
		for _, tree := range sys.Trees() {
			if w, den, ok := tree.RunWeights(); ok {
				weighted++
				var total uint64
				for r := 0; r < tree.NumRuns(); r++ {
					total += w[r]
					if got := rat.New(int64(w[r]), int64(den)); !got.Equal(tree.RunProb(r)) {
						t.Fatalf("seed %d run %d: weight %d/%d ≠ %s", seed, r, w[r], den, tree.RunProb(r))
					}
				}
				if total != den {
					t.Fatalf("seed %d tree %s: weights sum to %d, want %d", seed, tree.Adversary, total, den)
				}
			}
			for trial := 0; trial < 20; trial++ {
				rs := system.NewRunSet(tree.NumRuns())
				want := rat.Zero
				for r := 0; r < tree.NumRuns(); r++ {
					if rng.Intn(2) == 0 {
						rs.Add(r)
						want = want.Add(tree.RunProb(r))
					}
				}
				if got := tree.Prob(rs); !got.Equal(want) {
					t.Fatalf("seed %d tree %s runs %s: Prob = %s, want %s", seed, tree.Adversary, rs, got, want)
				}
			}
		}
	}
	if weighted == 0 {
		t.Fatal("no generated tree had integer run weights")
	}
}
