package kpa

import (
	"strconv"
	"testing"

	"kpa/internal/adversary"
	"kpa/internal/canon"
	"kpa/internal/core"
	"kpa/internal/logic"
	"kpa/internal/protocol"
	"kpa/internal/rat"
	"kpa/internal/system"
)

// Ablation benchmarks for the design choices called out in DESIGN.md: each
// pair runs the same computation with a design choice switched off, so
// `go test -bench=Ablation` quantifies what the choice buys.

// --- keyed space caching: one probability space per information cell ---
// core.Post hands the evaluator its sample spaces as a partition, one
// block per information cell cut at tree boundaries. The unkeyed copy has
// neither that partition form nor a SampleKey, so the evaluator asks
// ProbAssignment.Space at every point and builds a space per point.

func unkeyedPost(sys *system.System) core.SampleAssignment {
	return core.NewAssignment("post-unkeyed", func(i system.AgentID, c system.Point) system.PointSet {
		return sys.KInTree(i, c)
	})
}

func benchPrFormula(b *testing.B, sys *system.System, mk func(*system.System) core.SampleAssignment) {
	b.Helper()
	props := map[string]system.Fact{"lastHeads": canon.LastTossHeads()}
	f := logic.MustParse("Pr1(lastHeads) >= 1/1024")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		P := core.NewProbAssignment(sys, mk(sys))
		e := logic.NewEvaluator(sys, P, props)
		if _, err := e.Extension(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationKeyedCache(b *testing.B) {
	sys := canon.AsyncCoins(6)
	b.Run("keyed", func(b *testing.B) {
		benchPrFormula(b, sys, func(s *system.System) core.SampleAssignment { return core.Post(s) })
	})
	b.Run("unkeyed", func(b *testing.B) {
		benchPrFormula(b, sys, unkeyedPost)
	})
}

// --- grouped message delivery: binomial outcome grouping ---
// Sending m identical messengers branches m+1 ways; making the messenger
// bodies distinct defeats the grouping and forces 2^m delivery branches.

func messengerProtocol(m int, distinct bool) *protocol.Protocol {
	return &protocol.Protocol{
		Name: "abl",
		Agents: []protocol.AgentDef{
			{
				Name: "sender",
				Init: func(string) string { return "s" },
				Act: func(local string, round int) []protocol.Action {
					if round != 0 {
						return protocol.Deterministic(local)
					}
					msgs := make([]protocol.Msg, m)
					for i := range msgs {
						body := "go"
						if distinct {
							body = "go" + strconv.Itoa(i)
						}
						msgs[i] = protocol.Msg{To: 1, Body: body}
					}
					return protocol.Deterministic("s:sent", msgs...)
				},
			},
			{
				Name: "receiver",
				Init: func(string) string { return "r" },
				Recv: func(local string, d []protocol.Delivery, _ int) string {
					if len(d) > 0 {
						return "r:got"
					}
					return local
				},
			},
		},
		Inputs:       []string{"x"},
		DeliveryProb: rat.Half,
		Rounds:       1,
	}
}

func BenchmarkAblationGroupedDelivery(b *testing.B) {
	const m = 10
	for _, mode := range []struct {
		name     string
		distinct bool
	}{{"grouped", false}, {"expanded", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var runs int
			for i := 0; i < b.N; i++ {
				sys, err := messengerProtocol(m, mode.distinct).Build()
				if err != nil {
					b.Fatal(err)
				}
				runs = sys.Trees()[0].NumRuns()
			}
			b.ReportMetric(float64(runs), "runs")
		})
	}
}

// --- pts interval: closed form vs cut enumeration ---

func BenchmarkAblationPtsInterval(b *testing.B) {
	sys := canon.AsyncCoins(3)
	tree := sys.Trees()[0]
	c := system.Point{Tree: tree, Run: 0, Time: 1}
	sample := sys.KInTree(canon.P1, c)
	phi := canon.LastTossHeads()
	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := adversary.PtsInterval(sample, phi); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enumerated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _, err := adversary.IntervalOverCuts(adversary.PtsClass{}, sys, sample, phi)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- exact rationals: the cost of big.Rat relative to float64 ---
// The library deliberately pays this for exact theorem checking.

func BenchmarkAblationExactArithmetic(b *testing.B) {
	b.Run("rat", func(b *testing.B) {
		acc := rat.Zero
		inc := rat.New(1, 3)
		for i := 0; i < b.N; i++ {
			acc = acc.Add(inc).Mul(rat.Half)
		}
		_ = acc
	})
	b.Run("float64", func(b *testing.B) {
		acc := 0.0
		for i := 0; i < b.N; i++ {
			acc = (acc + 1.0/3.0) * 0.5
		}
		_ = acc
	})
}

// Guard: the two delivery modes agree on the observable outcome
// probabilities, so the ablation is a fair comparison. Run as a benchmark
// with -benchtime=1x semantics via a cheap assertion here.
func BenchmarkAblationGroupedDeliveryEquivalence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range []int{4} {
			got := make(map[bool]rat.Rat)
			for _, distinct := range []bool{false, true} {
				sys, err := messengerProtocol(m, distinct).Build()
				if err != nil {
					b.Fatal(err)
				}
				tree := sys.Trees()[0]
				pGot := rat.Zero
				for r := 0; r < tree.NumRuns(); r++ {
					if tree.NodeAt(r, 1).State.Local(1) == "r:got" {
						pGot = pGot.Add(tree.RunProb(r))
					}
				}
				got[distinct] = pGot
			}
			if !got[false].Equal(got[true]) {
				b.Fatalf("grouping changed observable probability: %s vs %s",
					got[false], got[true])
			}
		}
	}
}
