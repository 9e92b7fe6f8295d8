package logic

import (
	"strconv"
	"testing"

	"kpa/internal/core"
	"kpa/internal/gen"
	"kpa/internal/rat"
	"kpa/internal/system"
)

// chainRuns are the chain sizes the chain benchmarks run at: 8,192 and
// 32,768 points.
var chainRuns = []int{4096, 16384}

// benchChainFirst times the first query of f on a fresh system over the
// chain's tree (gen.ChainSystem): each iteration wraps the tree in a new
// System and builds its index and both agents' cells before the timer
// runs, as BenchmarkScaleIndexBuild does for the scale tiers, so the timed
// part is a new evaluator's proposition scan, the group's component
// partition or space tables, and the evaluation. The engine's fixpoint
// rounds are reported per query as rounds/op.
func benchChainFirst(b *testing.B, f Formula) {
	for _, runs := range chainRuns {
		b.Run("R="+strconv.Itoa(runs), func(b *testing.B) {
			tree := gen.MustChainSystem(runs).Trees()[0]
			props := map[string]system.Fact{"p": gen.ChainFact("p")}
			eng := NewEngine(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, err := system.NewTrusted(2, tree)
				if err != nil {
					b.Fatal(err)
				}
				idx := sys.Index()
				idx.Cells(0, 1)
				idx.Cells(1, 1)
				P := core.NewProbAssignment(sys, core.Post(sys))
				b.StartTimer()
				e := NewEvaluator(sys, P, props)
				e.SetEngine(eng)
				if _, err := e.DenseExtension(f); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(eng.ShardRounds.Load())/float64(b.N), "rounds/op")
		})
	}
}

// BenchmarkCommonChain is C_G p on the chain: the fixpoint X = E_G(p ∧ X)
// would strip one run per round, and the component form is one sweep.
func BenchmarkCommonChain(b *testing.B) {
	benchChainFirst(b, Common([]system.AgentID{0, 1}, Prop("p")))
}

// BenchmarkCommonPrChain is C_G^1 p under post on the chain, a fixpoint
// that still strips one run per round; its rounds/op is the work a
// delta-driven round would shrink.
func BenchmarkCommonPrChain(b *testing.B) {
	benchChainFirst(b, CommonPr([]system.AgentID{0, 1}, Prop("p"), rat.One))
}
