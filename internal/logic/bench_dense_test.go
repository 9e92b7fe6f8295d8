package logic

import (
	"math/rand"
	"sync"
	"testing"

	"kpa/internal/core"
	"kpa/internal/gen"
	"kpa/internal/rat"
	"kpa/internal/system"
)

// benchSystem is the shared fixture for the dense-vs-naive pairs: a
// generated three-agent system of ≥ 1000 points with a proposition and the
// post assignment. Built once — the point of benchmarking on one fixture is
// that Dense* and Naive* numbers divide into a meaningful speedup.
var benchOnce = sync.OnceValue(func() (fix struct {
	sys   *system.System
	props map[string]system.Fact
	P     *core.ProbAssignment
	group []system.AgentID
}) {
	rng := rand.New(rand.NewSource(1))
	fix.sys = gen.MustSystem(rng, gen.Config{
		NumAgents: 3, NumTrees: 2, MaxDepth: 5, MaxBranch: 3,
		Synchronous: true, ObservationLevels: true,
	})
	if n := fix.sys.Points().Len(); n < 1000 {
		panic("bench fixture too small")
	}
	fix.props = map[string]system.Fact{"p": gen.RandomFact(rng, fix.sys, "p")}
	fix.P = core.NewProbAssignment(fix.sys, core.Post(fix.sys))
	fix.group = []system.AgentID{0, 1, 2}
	return
})

// The Dense* benchmarks measure a warm evaluator: built once, memo dropped
// per iteration (Reset), index/cells/spaces retained — the service's steady
// state, where each evaluation's fresh evaluator reads a warm model. The Naive* baselines rebuild per iteration, which costs them
// only a map copy: the naive design re-derives cells and spaces inside every
// call, warm or not.

func BenchmarkDenseCommonFixpoint(b *testing.B) {
	fix := benchOnce()
	f := Common(fix.group, Prop("p"))
	e := NewEvaluator(fix.sys, fix.P, fix.props)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		if _, err := e.Extension(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaiveCommonFixpoint(b *testing.B) {
	fix := benchOnce()
	f := Common(fix.group, Prop("p"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewReferenceEvaluator(fix.sys, fix.P, fix.props)
		if _, err := e.Extension(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDenseCommonPrFixpoint(b *testing.B) {
	fix := benchOnce()
	f := CommonPr(fix.group, Prop("p"), rat.Half)
	e := NewEvaluator(fix.sys, fix.P, fix.props)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		if _, err := e.Extension(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaiveCommonPrFixpoint(b *testing.B) {
	fix := benchOnce()
	f := CommonPr(fix.group, Prop("p"), rat.Half)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewReferenceEvaluator(fix.sys, fix.P, fix.props)
		if _, err := e.Extension(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDenseKnowledge(b *testing.B) {
	fix := benchOnce()
	f := K(0, Prop("p"))
	e := NewEvaluator(fix.sys, fix.P, fix.props)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		if _, err := e.Extension(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaiveKnowledge(b *testing.B) {
	fix := benchOnce()
	f := K(0, Prop("p"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewReferenceEvaluator(fix.sys, fix.P, fix.props)
		if _, err := e.Extension(f); err != nil {
			b.Fatal(err)
		}
	}
}
