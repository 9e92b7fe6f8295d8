package search_test

import (
	"testing"

	"kpa/internal/search"
)

// benchProblem is the fixed bench fixture: the coupled two-tree system
// anchored at time 5, giving 32 conflicted p_1 locals and 2^32 ≈ 4.3e9
// candidate strategies — far beyond enumeration range.
func benchProblem(t testing.TB, mode search.Mode) *search.Problem {
	return coupledProblem(t, 6, 5, mode)
}

// TestSearchBenchReport solves the bench fixture and asserts the
// acceptance floor: a ≥10^6-strategy space with pruned fraction > 0.9.
// BenchmarkEngineAdversary reports the same counters per op.
func TestSearchBenchReport(t *testing.T) {
	p := benchProblem(t, search.ModeAdversary)
	total, _ := p.TotalStrategies()
	if total < 1_000_000 {
		t.Fatalf("bench space has only %d strategies, want >= 1e6", total)
	}

	eng := search.New(p, search.Config{Workers: 4})
	res, err := eng.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatal("bench search did not complete optimally")
	}

	prog := eng.Progress()
	// Pruned fraction over strategies: everything the engine never had to
	// evaluate leaf-by-leaf was eliminated by bounds.
	permille := (total - prog.LeafEvals) * 1000 / total
	if permille <= 900 {
		t.Fatalf("pruned fraction %d permille, want > 900", permille)
	}
	t.Logf("bench: %d strategies, %d nodes expanded, %d pruned, %d leaf evals, %d permille pruned",
		total, prog.NodesExpanded, prog.NodesPruned, prog.LeafEvals, permille)
}

// BenchmarkEngineAdversary times the bench fixture's search and reports
// its nodes expanded, nodes pruned and leaf evaluations per op.
func BenchmarkEngineAdversary(b *testing.B) {
	p := benchProblem(b, search.ModeAdversary)
	var sum search.Progress
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		eng := search.New(p, search.Config{Workers: 4})
		if _, err := eng.Run(nil); err != nil {
			b.Fatal(err)
		}
		prog := eng.Progress()
		sum.NodesExpanded += prog.NodesExpanded
		sum.NodesPruned += prog.NodesPruned
		sum.LeafEvals += prog.LeafEvals
	}
	ops := float64(b.N)
	b.ReportMetric(float64(sum.NodesExpanded)/ops, "expanded/op")
	b.ReportMetric(float64(sum.NodesPruned)/ops, "pruned/op")
	b.ReportMetric(float64(sum.LeafEvals)/ops, "leaf-evals/op")
}

func BenchmarkProblemCompile(b *testing.B) {
	for n := 0; n < b.N; n++ {
		benchProblem(b, search.ModeAdversary)
	}
}
