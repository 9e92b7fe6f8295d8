package logic

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"kpa/internal/core"
	"kpa/internal/rat"
	"kpa/internal/system"
)

// kernelFix is a kpabench-shaped system for the per-operator rows: one
// broom of 2,048 runs × 8 points (16,384 points) whose run r has weight
// 1–4, three agents each seeing the time and one of 16 buckets drawn per
// point, and propositions pJ holding past time 0 with probability
// (J+1)/5, as kpabench's generator draws them.
var kernelFix = sync.OnceValue(func() (fix struct {
	sys   *system.System
	props map[string]system.Fact
	P     *core.ProbAssignment
}) {
	const agents, runs, length, buckets, props = 3, 2048, 8, 16, 4
	rng := rand.New(rand.NewSource(1))
	weight := make([]int64, runs)
	var total int64
	for r := range weight {
		weight[r] = 1 + rng.Int63n(4)
		total += weight[r]
	}
	locals := func(k int) []system.LocalState {
		out := make([]system.LocalState, agents)
		for i := range out {
			out[i] = system.LocalState("a" + strconv.Itoa(i) + ":t" + strconv.Itoa(k) + ":b" + strconv.Itoa(rng.Intn(buckets)))
		}
		return out
	}
	root := make([]system.LocalState, agents)
	for i := range root {
		root[i] = system.LocalState("a" + strconv.Itoa(i) + ":t0")
	}
	holds := make(map[string]bool)
	tb := system.NewTree("broom", system.GlobalState{Env: "root", Locals: root})
	for r := 0; r < runs; r++ {
		id := system.NodeID(0)
		for k := 1; k < length; k++ {
			env := "r" + strconv.Itoa(r) + "." + strconv.Itoa(k)
			for j := 0; j < props; j++ {
				if rng.Intn(props+1) <= j {
					holds[env+"/p"+strconv.Itoa(j)] = true
				}
			}
			prob := rat.One
			if k == 1 {
				prob = rat.New(weight[r], total)
			}
			id = tb.Child(id, prob, system.GlobalState{Env: env, Locals: locals(k)})
		}
	}
	var err error
	if fix.sys, err = system.New(agents, tb.MustBuild()); err != nil {
		panic(err)
	}
	fix.props = make(map[string]system.Fact, props)
	for j := 0; j < props; j++ {
		name := "p" + strconv.Itoa(j)
		fix.props[name] = system.NewFact(name, func(p system.Point) bool { return holds[p.Env()+"/"+name] })
	}
	fix.P = core.NewProbAssignment(fix.sys, core.Post(fix.sys))
	return
})

// BenchmarkKernels times one operator at a time over kernelFix on a warm
// evaluator, the memo dropped per iteration: the proposition extensions,
// cells, space tables and group partitions are built before the timer, so
// each row is the operator's own sweep. p1 holds at about 2/5 of the
// points and p2 at about 3/5, so the Pr rows sum the extension's side and
// the complement's.
func BenchmarkKernels(b *testing.B) {
	all := []system.AgentID{0, 1, 2}
	for _, row := range []struct {
		name string
		f    Formula
	}{
		{"Next", Next(Prop("p1"))},
		{"Until", Until(Prop("p2"), Prop("p0"))},
		{"Eventually", Eventually(Prop("p0"))},
		{"PrGeq", PrGeq(0, Prop("p1"), rat.New(1, 3))},
		{"PrLeq", PrLeq(1, Prop("p2"), rat.New(2, 3))},
		{"Everyone", Everyone(all, Prop("p2"))},
		{"Common", Common(all, Prop("p2"))},
		{"CommonPr", CommonPr(all, Prop("p2"), rat.New(1, 2))},
	} {
		b.Run(row.name, func(b *testing.B) {
			fix := kernelFix()
			e := NewEvaluator(fix.sys, fix.P, fix.props)
			if _, err := e.DenseExtension(row.f); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Reset()
				if _, err := e.DenseExtension(row.f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
