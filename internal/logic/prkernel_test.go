package logic

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"kpa/internal/canon"
	"kpa/internal/core"
	"kpa/internal/gen"
	"kpa/internal/rat"
	"kpa/internal/system"
)

// primeTreeSystem is a two-agent system over one full binary tree of depth
// five whose k-th branching splits 1/3 : 2/3 of the prime p_k near 2^16.
// Every run probability has the ~80-bit product of the primes as its
// denominator, so the tree has no integer run weights and every Pr verdict
// takes the exact-rational fallback. p1 sees the clock and the first
// outcome; p2 has no clock and sees only the latest outcome, so its fibers
// span several times and inner and outer measure differ.
func primeTreeSystem(t *testing.T) *system.System {
	t.Helper()
	primes := []int64{65521, 65519, 65497, 65479, 65449}
	tb := system.NewTree("primes", system.NewGlobalState("", "p1:t0", "p2:start"))
	var grow func(id system.NodeID, hist string)
	grow = func(id system.NodeID, hist string) {
		k := len(hist)
		if k == len(primes) {
			return
		}
		p := primes[k]
		for bit, prob := range []rat.Rat{rat.New(p/3, p), rat.New(p-p/3, p)} {
			h := hist + strconv.Itoa(bit)
			child := tb.Child(id, prob, system.NewGlobalState(h,
				system.LocalState("p1:t"+strconv.Itoa(k+1)+":"+h[:1]),
				system.LocalState("p2:"+h[k:])))
			grow(child, h)
		}
	}
	grow(0, "")
	tree, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tree.RunWeights(); ok {
		t.Fatal("prime tree unexpectedly has integer run weights")
	}
	sys, err := system.New(2, tree)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// sampleAssignments returns the assignments the probability tests sweep:
// the four canonical ones (post, fut, prior and the opponent assignment
// against the last agent), which the engine reads as partitions, and two
// that take its per-point path — a keyed copy of post, whose points share
// spaces through the key cache, and a non-uniform unkeyed assignment,
// S_ic = {d ∈ Tree_ic : d.Run ≥ c.Run}, whose spaces overlap.
func sampleAssignments(sys *system.System) []core.SampleAssignment {
	post := core.Post(sys)
	return []core.SampleAssignment{
		post,
		core.Future(sys),
		core.Prior(sys),
		core.Opponent(sys, system.AgentID(sys.NumAgents()-1)),
		core.NewKeyedAssignment("post-keyed", post.Sample, post.(core.KeyedAssignment).SampleKey),
		core.NewAssignment("post-tail", func(i system.AgentID, c system.Point) system.PointSet {
			return sys.KInTree(i, c).Filter(func(d system.Point) bool { return d.Run >= c.Run })
		}),
	}
}

// agreeWithReference evaluates every formula on a fresh dense evaluator and
// on the reference evaluator and fails on the first disagreement.
func agreeWithReference(t *testing.T, label string, sys *system.System, P *core.ProbAssignment, props map[string]system.Fact, formulas []Formula) {
	t.Helper()
	dense := NewEvaluator(sys, P, props)
	naive := NewReferenceEvaluator(sys, P, props)
	for _, f := range formulas {
		want, errN := naive.Extension(f)
		got, errD := dense.Extension(f)
		if (errN == nil) != (errD == nil) {
			t.Fatalf("%s formula %s: error disagreement: reference %v, dense %v", label, f, errN, errD)
		}
		if errN == nil && !got.Equal(want) {
			t.Fatalf("%s formula %s: dense extension differs from reference", label, f)
		}
	}
}

// TestPrFallbackMatchesReference pins the exact-rational fallback: on a
// tree without integer run weights, Pr ≥, Pr ≤, E_G^α and C_G^α must equal
// the reference evaluator under every canonical assignment, including at
// bounds equal to a branch probability.
func TestPrFallbackMatchesReference(t *testing.T) {
	sys := primeTreeSystem(t)
	rng := rand.New(rand.NewSource(15))
	props := map[string]system.Fact{
		"p0": gen.RandomFact(rng, sys, "p0"),
		"p1": gen.RandomRunFact(rng, sys, "p1"),
	}
	g := []system.AgentID{0, 1}
	edge := rat.New(65521/3, 65521)
	formulas := []Formula{
		PrGeq(0, Prop("p0"), rat.Half),
		PrGeq(1, Prop("p0"), rat.New(1, 3)),
		PrLeq(1, Prop("p0"), rat.New(2, 3)),
		PrGeq(0, Prop("p1"), edge),
		PrLeq(0, Prop("p1"), edge),
		PrGeq(1, Eventually(Prop("p1")), edge),
		EveryonePr(g, Prop("p0"), rat.New(1, 3)),
		CommonPr(g, Prop("p0"), rat.New(1, 3)),
		CommonPr(g, Or(Prop("p0"), Prop("p1")), edge),
	}
	for j := 0; j < 20; j++ {
		formulas = append(formulas, randomFormula(rng, 3, 2, 2))
	}
	for _, sa := range sampleAssignments(sys) {
		P := core.NewProbAssignment(sys, sa)
		agreeWithReference(t, "prime tree/"+sa.Name(), sys, P, props, formulas)
	}
}

// TestPrWideBoundsMatchReference runs integer-weighted systems against
// bounds the integer kernel cannot take — a denominator past 2^64, a
// negative bound — and bounds above one, which it can.
func TestPrWideBoundsMatchReference(t *testing.T) {
	tiny := rat.MustParse("1/100000000000000000000")
	if _, _, ok := tiny.Frac64(); ok {
		t.Fatal("1/10^20 unexpectedly fits uint64 parts")
	}
	bounds := []rat.Rat{tiny, rat.One.Sub(tiny), rat.New(-1, 2), rat.New(3, 2), rat.Zero, rat.One}
	cfgs := []gen.Config{
		gen.DefaultConfig(),
		{NumAgents: 2, NumTrees: 2, MaxDepth: 3, MaxBranch: 3, Synchronous: false, ObservationLevels: true},
	}
	for s := 0; s < 6; s++ {
		rng := rand.New(rand.NewSource(int64(7000 + s)))
		cfg := cfgs[s%len(cfgs)]
		sys := gen.MustSystem(rng, cfg)
		props := map[string]system.Fact{"p0": gen.RandomFact(rng, sys, "p0")}
		g := []system.AgentID{0, 1}
		var formulas []Formula
		for _, b := range bounds {
			for i := system.AgentID(0); i < 2; i++ {
				formulas = append(formulas, PrGeq(i, Prop("p0"), b), PrLeq(i, Prop("p0"), b))
			}
			formulas = append(formulas, EveryonePr(g, Prop("p0"), b), CommonPr(g, Eventually(Prop("p0")), b))
		}
		for _, sa := range sampleAssignments(sys) {
			P := core.NewProbAssignment(sys, sa)
			agreeWithReference(t, fmt.Sprintf("seed %d/%s", 7000+s, sa.Name()), sys, P, props, formulas)
		}
	}
}

// TestPrGeqAllocsConstant pins the integer kernel's allocation profile: a
// warm Pr ≥ verdict sweep allocates a fixed number of times — the verdict
// slice, the result set, the sweep closures — however many spaces the
// agent has.
func TestPrGeqAllocsConstant(t *testing.T) {
	var counts []float64
	for _, buckets := range []int{4, 32} {
		sys := gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 2, NumRuns: 256, RunLen: 6, Buckets: buckets})
		P := core.NewProbAssignment(sys, core.Post(sys))
		e := NewEvaluator(sys, P, map[string]system.Fact{"p": gen.ScaleFact("p", 3)})
		ext, err := e.DenseExtension(Prop("p"))
		if err != nil {
			t.Fatal(err)
		}
		sx, err := e.spaceIndexFor(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(sx.base) == 0 || sx.base[len(sx.base)-1] == 0 {
			t.Fatal("scale system spaces did not take the integer kernel")
		}
		alpha := rat.New(1, 3)
		n := testing.AllocsPerRun(50, func() {
			if _, err := e.prExtension(0, ext, alpha, true); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d spaces: %v allocs per PrGeq sweep", len(sx.base), n)
		counts = append(counts, n)
	}
	if counts[0] != counts[1] {
		t.Fatalf("PrGeq allocations grow with the number of spaces: %v", counts)
	}
	if counts[0] > 8 {
		t.Fatalf("PrGeq allocates %v times per sweep, want a small constant", counts[0])
	}
}

// TestPropExtensionsSurviveReset checks the lifetime of the model's
// proposition extensions: Reset keeps them and a second evaluator over the
// model reads the same set (neither calls the fact again), while a scan
// that the cancel hook aborted, or whose fact panicked, publishes nothing,
// so the next evaluator over that model rescans in full.
func TestPropExtensionsSurviveReset(t *testing.T) {
	sys := gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 1, NumRuns: 2048, RunLen: 4, Buckets: 4})
	n := sys.NumPoints()
	calls, panicAt := 0, 0
	fact := system.NewFact("p", func(p system.Point) bool {
		calls++
		if calls == panicAt {
			panic("fact failed")
		}
		return p.Run%3 == 0
	})
	props := map[string]system.Fact{"p": fact}
	m := NewModel(sys, nil, props)
	e := m.NewEvaluator()
	want, err := e.DenseExtension(Prop("p"))
	if err != nil {
		t.Fatal(err)
	}
	e.Reset()
	got, err := e.DenseExtension(Prop("p"))
	if err != nil {
		t.Fatal(err)
	}
	if calls != n || got != want {
		t.Fatalf("after Reset: %d fact calls (want %d), same extension %v", calls, n, got == want)
	}
	if e.MemoLen() != 1 {
		t.Fatalf("MemoLen after re-evaluation = %d, want 1", e.MemoLen())
	}
	if got, err = m.NewEvaluator().DenseExtension(Prop("p")); err != nil {
		t.Fatal(err)
	}
	if calls != n || got != want {
		t.Fatalf("second evaluator: %d fact calls (want %d), same extension %v", calls, n, got == want)
	}

	// Abort the scan partway on a fresh model: the hook passes the
	// subformula boundary, then fails at the first stride inside the scan
	// (8192 points, two strides).
	m = NewModel(sys, nil, props)
	e = m.NewEvaluator()
	hooks := 0
	e.SetCancel(func() error {
		hooks++
		if hooks > 1 {
			return errCancelTest
		}
		return nil
	})
	calls = 0
	if _, err := e.DenseExtension(Prop("p")); !errors.Is(err, errCancelTest) {
		t.Fatalf("aborted scan returned %v, want the hook's error", err)
	}
	if calls == 0 || calls >= n {
		t.Fatalf("the aborted scan made %d fact calls, want part of %d", calls, n)
	}
	rescan := func(label string) {
		t.Helper()
		calls = 0
		got, err := m.NewEvaluator().DenseExtension(Prop("p"))
		if err != nil {
			t.Fatal(err)
		}
		if calls != n || !got.Equal(want) {
			t.Fatalf("after %s: %d fact calls (want a full rescan, %d), equal extension %v", label, calls, n, got.Equal(want))
		}
	}
	rescan("an aborted scan")

	// A scan whose fact panics on its first call publishes nothing either.
	m = NewModel(sys, nil, props)
	calls, panicAt = 0, 1
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the fact's panic did not reach the caller")
			}
		}()
		_, _ = m.NewEvaluator().DenseExtension(Prop("p"))
	}()
	panicAt = 0
	rescan("a panicked scan")
}

// TestAbortedSpaceBuildPublishesNothing: a space-table build that the
// cancel hook aborts, or whose assignment panics, publishes nothing to the
// model, so the next evaluator over it builds the table in full and
// answers as an evaluator over a model of its own does.
func TestAbortedSpaceBuildPublishesNothing(t *testing.T) {
	sys := gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 1, NumRuns: 2048, RunLen: 4, Buckets: 4})
	props := map[string]system.Fact{"p": gen.ScaleFact("p", 3)}
	f := PrGeq(0, Prop("p"), rat.New(1, 3))
	post := core.Post(sys)
	want, err := NewEvaluator(sys, core.NewProbAssignment(sys, post), props).DenseExtension(f)
	if err != nil {
		t.Fatal(err)
	}
	samples, panicking := 0, false
	// The keyed post assignment without its partition form: the per-point
	// build, which polls the hook every 4,096 points.
	sa := core.NewKeyedAssignment("post-keyed", func(i system.AgentID, c system.Point) system.PointSet {
		samples++
		if panicking {
			panic("sample failed")
		}
		return post.Sample(i, c)
	}, post.(core.KeyedAssignment).SampleKey)

	for _, abort := range []string{"canceled", "panicked"} {
		m := NewModel(sys, core.NewProbAssignment(sys, sa), props)
		e := m.NewEvaluator()
		if _, err := e.DenseExtension(Prop("p")); err != nil {
			t.Fatal(err)
		}
		samples = 0
		if abort == "canceled" {
			// The first call is the Pr node's boundary; the second is the
			// build's first stride (8192 points).
			hooks := 0
			e.SetCancel(func() error {
				hooks++
				if hooks > 1 {
					return errCancelTest
				}
				return nil
			})
			if _, err := e.DenseExtension(f); !errors.Is(err, errCancelTest) {
				t.Fatalf("canceled build returned %v, want the hook's error", err)
			}
		} else {
			panicking = true
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("the assignment's panic did not reach the caller")
					}
				}()
				_, _ = e.DenseExtension(f)
			}()
			panicking = false
		}
		if samples == 0 || m.spaces[0].Load() != nil {
			t.Fatalf("%s build: %d Sample calls, published table %v; want some calls and no table",
				abort, samples, m.spaces[0].Load() != nil)
		}
		got, err := m.NewEvaluator().DenseExtension(f)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || m.spaces[0].Load() == nil {
			t.Fatalf("after a %s build: equal extension %v, table published %v", abort, got.Equal(want), m.spaces[0].Load() != nil)
		}
	}
}

// TestPrForeignSampleMatchesReference feeds the evaluator a sample-space
// assignment that breaks REQ1: every sample lies in a tree of another,
// structurally identical system. Such points are outside every extension
// over the evaluator's index, so the integer kernel must not guess dense
// IDs for them; dense and reference verdicts must agree.
func TestPrForeignSampleMatchesReference(t *testing.T) {
	sys, other := canon.AsyncCoins(3), canon.AsyncCoins(3)
	foreign := core.NewAssignment("foreign", func(i system.AgentID, c system.Point) system.PointSet {
		return other.KInTree(i, system.Point{Tree: other.Trees()[0], Run: c.Run, Time: c.Time})
	})
	props := map[string]system.Fact{"lastHeads": canon.LastTossHeads()}
	formulas := []Formula{
		PrGeq(0, Prop("lastHeads"), rat.Zero),
		PrGeq(1, Not(Prop("lastHeads")), rat.New(1, 8)),
		PrLeq(0, Prop("lastHeads"), rat.Zero),
		PrLeq(1, True, rat.Half),
	}
	agreeWithReference(t, "foreign samples", sys, core.NewProbAssignment(sys, foreign), props, formulas)
}

// TestIntKernelFiberShapes pins the integer kernel on both shapes of space
// table. In a synchronous system every run meets a sample space at most
// once, so under each canonical assignment every fiber is one point and
// the table stores no fiber offsets; in an asynchronous one, an agent
// without a clock sees several points of a run alike, so fibers span
// several points and the kernel ANDs (Pr ≥, inner measure) or ORs (Pr ≤,
// outer measure) their bits. Both shapes must match the reference at
// every bound j/d with d ≤ 12, and the test checks that some of those
// bounds are knife edges, where a space's measure equals the bound.
func TestIntKernelFiberShapes(t *testing.T) {
	cfg := gen.Config{NumAgents: 2, NumTrees: 2, MaxDepth: 3, MaxBranch: 3, ObservationLevels: true}
	var bounds []rat.Rat
	seen := make(map[string]bool)
	for d := int64(1); d <= 12; d++ {
		for j := int64(0); j <= d; j++ {
			if b := rat.New(j, d); !seen[b.Key()] {
				seen[b.Key()] = true
				bounds = append(bounds, b)
			}
		}
	}
	for _, synchronous := range []bool{true, false} {
		cfg.Synchronous = synchronous
		rng := rand.New(rand.NewSource(19))
		multi, edges := 0, 0
		for s := 0; s < 4; s++ {
			sys := gen.MustSystem(rng, cfg)
			props := map[string]system.Fact{"p": gen.RandomFact(rng, sys, "p")}
			p := Prop("p")
			for _, sa := range sampleAssignments(sys)[:4] {
				label := fmt.Sprintf("synchronous=%v seed %d/%s", synchronous, s, sa.Name())
				P := core.NewProbAssignment(sys, sa)
				dense := NewEvaluator(sys, P, props)
				naive := NewReferenceEvaluator(sys, P, props)
				for i := system.AgentID(0); i < 2; i++ {
					sx, err := dense.spaceIndexFor(i)
					if err != nil {
						t.Fatal(err)
					}
					if synchronous && sx.fibOff != nil {
						t.Fatalf("%s agent %d: synchronous table stores fiber offsets", label, i)
					}
					if sx.fibOff != nil {
						multi++
					}
					for _, base := range sx.base {
						if base == 0 {
							t.Fatalf("%s agent %d: a space left the integer kernel", label, i)
						}
					}
					for _, b := range bounds {
						geq, leq := PrGeq(i, p, b), PrLeq(i, p, b)
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
			}
		}
		if !synchronous && multi == 0 {
			t.Fatal("no asynchronous table has a multi-point fiber")
		}
		if edges == 0 {
			t.Fatalf("synchronous=%v: no bound was a knife edge", synchronous)
		}
		t.Logf("synchronous=%v: %d tables with multi-point fibers, %d knife-edge (agent, bound) pairs", synchronous, multi, edges)
	}
}
