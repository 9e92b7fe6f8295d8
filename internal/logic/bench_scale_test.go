package logic

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"kpa/internal/core"
	"kpa/internal/gen"
	"kpa/internal/rat"
	"kpa/internal/system"
)

// The scale-tier benchmarks drive the dense engine over the gen.ScaleTiers
// broom systems (~10^5 to ~10^7 points) at a configurable parallelism
// budget. They are opt-in — scripts/scale_bench.sh and the verify smoke set
// the environment, everything else skips them — because each (tier,
// workers) pair must run in its own process: the peak-RSS metric reads
// VmHWM from /proc/self/status, which is monotonic over a process's life,
// so mixing tiers in one invocation would charge the small tiers the big
// tier's high-water mark.
//
//	KPA_SCALE_TIER     tier label from gen.ScaleTiers ("100k", "1m", "10m")
//	KPA_SCALE_WORKERS  parallelism budget (default 1)
//
// Usage: KPA_SCALE_TIER=1m KPA_SCALE_WORKERS=4 \
//	go test -run '^$' -bench 'Scale' -benchtime 5x ./internal/logic

// scaleFix lazily builds the benchmark fixture for the configured tier.
// One fixture per process (see above), so a plain cached struct suffices.
var scaleFix struct {
	tier    string
	workers int
	sys     *system.System
	props   map[string]system.Fact
	P       *core.ProbAssignment
	group   []system.AgentID
}

// scaleSetup skips b unless the scale environment is set, then returns the
// process-wide fixture, building it on first use.
func scaleSetup(b *testing.B) {
	b.Helper()
	tier := os.Getenv("KPA_SCALE_TIER")
	if tier == "" {
		b.Skip("scale-tier benchmark: set KPA_SCALE_TIER (100k, 1m, 10m); see scripts/scale_bench.sh")
	}
	if scaleFix.sys != nil {
		if scaleFix.tier != tier {
			b.Fatalf("tier changed mid-process: %s then %s", scaleFix.tier, tier)
		}
		return
	}
	cfg, ok := gen.ScaleTiers[tier]
	if !ok {
		b.Fatalf("unknown KPA_SCALE_TIER %q", tier)
	}
	workers := 1
	if w := os.Getenv("KPA_SCALE_WORKERS"); w != "" {
		n, err := strconv.Atoi(w)
		if err != nil || n < 1 {
			b.Fatalf("bad KPA_SCALE_WORKERS %q", w)
		}
		workers = n
	}
	scaleFix.tier = tier
	scaleFix.workers = workers
	scaleFix.sys = gen.MustScaleSystem(cfg)
	scaleFix.props = map[string]system.Fact{"p": gen.ScaleFact("p", 3)}
	scaleFix.P = core.NewProbAssignment(scaleFix.sys, core.Post(scaleFix.sys))
	scaleFix.group = make([]system.AgentID, cfg.NumAgents)
	for i := range scaleFix.group {
		scaleFix.group[i] = system.AgentID(i)
	}
}

// scaleEvaluator returns a warm evaluator at the configured budget, the
// service's steady state: index, cells and spaces retained, memo dropped
// per iteration by the caller.
func scaleEvaluator(b *testing.B) *Evaluator {
	b.Helper()
	scaleFix.sys.BuildIndex(scaleFix.workers)
	e := NewEvaluator(scaleFix.sys, scaleFix.P, scaleFix.props)
	e.SetEngine(NewEngine(scaleFix.workers))
	return e
}

// reportPeakRSS attaches the process's VmHWM (peak resident set, KB) to the
// benchmark result. Linux-only; silently absent elsewhere.
func reportPeakRSS(b *testing.B) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				b.ReportMetric(kb, "peakRSS-KB")
			}
			return
		}
	}
}

// scaleBenchFormula times f on a warm evaluator. One untimed evaluation
// first builds the one-time per-agent tables (cell partitions, space
// tables), so ns/op and allocs/op are the steady-state cost of a query
// rather than a one-time build divided by b.N; BenchmarkScaleSpaceBuild
// times that build on its own.
func scaleBenchFormula(b *testing.B, f Formula) {
	scaleSetup(b)
	e := scaleEvaluator(b)
	if _, err := e.DenseExtension(f); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		if _, err := e.DenseExtension(f); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPeakRSS(b)
}

// BenchmarkScaleIndexBuild measures the one-time per-system cost the
// serving path pays on a cold session: the point index plus every agent's
// cell partition, built with the configured worker count. Each iteration
// wraps the shared tree in a fresh System so the once-guards do not
// short-circuit the build.
func BenchmarkScaleIndexBuild(b *testing.B) {
	scaleSetup(b)
	trees := scaleFix.sys.Trees()
	agents := len(scaleFix.group)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := system.NewTrusted(agents, trees...)
		if err != nil {
			b.Fatal(err)
		}
		idx := sys.BuildIndex(scaleFix.workers)
		for _, a := range scaleFix.group {
			idx.Cells(a, scaleFix.workers)
		}
	}
	b.StopTimer()
	reportPeakRSS(b)
}

// BenchmarkScaleSpaceBuild measures the other one-time cost of a session
// that asks Pr queries: every agent's probability-space table — the
// assignment's partition plus the probability kernels' run table — built
// by a fresh evaluator and assignment per iteration over the shared,
// already indexed system. Every agent's cells are built before the timer
// starts: they are BenchmarkScaleIndexBuild's one-time cost, which the
// post partition reads, and would otherwise be charged to the first
// iteration.
func BenchmarkScaleSpaceBuild(b *testing.B) {
	scaleSetup(b)
	scaleEvaluator(b)
	idx := scaleFix.sys.Index()
	for _, a := range scaleFix.group {
		idx.Cells(a, scaleFix.workers)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		P := core.NewProbAssignment(scaleFix.sys, core.Post(scaleFix.sys))
		e := NewEvaluator(scaleFix.sys, P, scaleFix.props)
		e.SetEngine(NewEngine(scaleFix.workers))
		for _, a := range scaleFix.group {
			if _, err := e.spaceIndexFor(a); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	reportPeakRSS(b)
}

// BenchmarkScaleCheckout times what a further evaluator costs once a first
// one has warmed the model, as a pool's further cold checkout does: a new
// evaluator over the model that answers Pr_i(p) ≥ 1/3 for every agent,
// under post, fut, prior and opp(p2). The first evaluator, untimed, builds
// the proposition extension and the space tables. retained-B is the live
// heap one more such evaluator holds once its memo is reset, measured
// after a GC on either side of it.
func BenchmarkScaleCheckout(b *testing.B) {
	scaleSetup(b)
	sys := scaleFix.sys
	sys.BuildIndex(scaleFix.workers)
	var formulas []Formula
	for _, i := range scaleFix.group {
		formulas = append(formulas, PrGeq(i, Prop("p"), rat.New(1, 3)))
	}
	for _, sa := range []core.SampleAssignment{core.Post(sys), core.Future(sys), core.Prior(sys), core.Opponent(sys, 1)} {
		b.Run(strings.TrimSuffix(sa.Name(), "(p2)"), func(b *testing.B) {
			m := NewModel(sys, core.NewProbAssignment(sys, sa), scaleFix.props)
			checkout := func() *Evaluator {
				e := m.NewEvaluator()
				e.SetEngine(NewEngine(scaleFix.workers))
				for _, f := range formulas {
					if _, err := e.DenseExtension(f); err != nil {
						b.Fatal(err)
					}
				}
				return e
			}
			checkout()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				checkout()
			}
			b.StopTimer()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			e := checkout()
			e.Reset()
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(e)
			b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)), "retained-B")
		})
	}
}

// BenchmarkScaleKnowledge is one K_i sweep: a member walk per information
// cell plus the sharded point fill.
func BenchmarkScaleKnowledge(b *testing.B) {
	scaleBenchFormula(b, K(0, Prop("p")))
}

// BenchmarkScaleKnowledgeAllPass is the K_i sweep's worst case: every cell
// passes, so every member of every cell is walked.
func BenchmarkScaleKnowledgeAllPass(b *testing.B) {
	scaleBenchFormula(b, K(0, True))
}

// BenchmarkScaleCommon is C_G: one K sweep over the group's component
// partition, which the untimed first evaluation builds and the index
// caches.
func BenchmarkScaleCommon(b *testing.B) {
	scaleSetup(b)
	scaleBenchFormula(b, Common(scaleFix.group, Prop("p")))
}

// BenchmarkScaleCommonPr is the C_G^α fixpoint: integer-kernel verdict
// sweeps over every space plus the sharded point fills.
func BenchmarkScaleCommonPr(b *testing.B) {
	scaleSetup(b)
	scaleBenchFormula(b, CommonPr(scaleFix.group, Prop("p"), rat.New(1, 3)))
}
