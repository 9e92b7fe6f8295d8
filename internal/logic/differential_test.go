package logic

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"kpa/internal/core"
	"kpa/internal/gen"
	"kpa/internal/rat"
	"kpa/internal/system"
)

// randomFormula builds a random formula of bounded depth over the
// propositions p0..p{nprops-1} and the agents of an n-agent system, covering
// every operator of L(Φ) including the group and probabilistic-group
// operators.
func randomFormula(rng *rand.Rand, depth, nprops, nagents int) Formula {
	alphas := []rat.Rat{rat.Zero, rat.New(1, 3), rat.Half, rat.New(2, 3), rat.One}
	alpha := func() rat.Rat { return alphas[rng.Intn(len(alphas))] }
	agent := func() system.AgentID { return system.AgentID(rng.Intn(nagents)) }
	group := func() []system.AgentID {
		g := []system.AgentID{agent()}
		for i := 0; i < nagents; i++ {
			if rng.Intn(2) == 0 {
				g = append(g, system.AgentID(i))
			}
		}
		return g
	}
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return True
		case 1:
			return False
		default:
			return Prop(fmt.Sprintf("p%d", rng.Intn(nprops)))
		}
	}
	sub := func() Formula { return randomFormula(rng, depth-1, nprops, nagents) }
	switch rng.Intn(16) {
	case 0:
		return Prop(fmt.Sprintf("p%d", rng.Intn(nprops)))
	case 1:
		return Not(sub())
	case 2:
		return And(sub(), sub())
	case 3:
		return Or(sub(), sub())
	case 4:
		return Implies(sub(), sub())
	case 5:
		return Next(sub())
	case 6:
		return Until(sub(), sub())
	case 7:
		return Eventually(sub())
	case 8:
		return Always(sub())
	case 9:
		return K(agent(), sub())
	case 10:
		return PrGeq(agent(), sub(), alpha())
	case 11:
		return PrLeq(agent(), sub(), alpha())
	case 12:
		return Everyone(group(), sub())
	case 13:
		return Common(group(), sub())
	case 14:
		return EveryonePr(group(), sub(), alpha())
	default:
		return CommonPr(group(), sub(), alpha())
	}
}

// TestDifferentialDenseVsReference is the executable-specification check:
// on seeded random (system, assignment, formula) cases the dense evaluator
// must agree point-for-point with the retained naive ReferenceEvaluator.
// Half the configurations are asynchronous, so agents without a clock have
// multi-point run fibers where inner and outer measure differ, and every
// system is checked under the four canonical assignments (post, fut,
// prior, opp) and two that take the engine's per-point path (see
// sampleAssignments) — 60 systems × 6 assignments × 5 formulas.
func TestDifferentialDenseVsReference(t *testing.T) {
	const (
		numSystems     = 60
		formulasPerSys = 5
		propsPerSys    = 3
		formulaDepth   = 4
	)
	cfgs := []gen.Config{
		gen.DefaultConfig(),
		{NumAgents: 3, NumTrees: 2, MaxDepth: 3, MaxBranch: 3, Synchronous: true, ObservationLevels: true},
		{NumAgents: 2, NumTrees: 3, MaxDepth: 4, MaxBranch: 2, Synchronous: true, ObservationLevels: true},
		{NumAgents: 1, NumTrees: 1, MaxDepth: 4, MaxBranch: 3, Synchronous: true, ObservationLevels: false},
		{NumAgents: 2, NumTrees: 2, MaxDepth: 3, MaxBranch: 3, Synchronous: false, ObservationLevels: true},
		{NumAgents: 3, NumTrees: 1, MaxDepth: 4, MaxBranch: 2, Synchronous: false, ObservationLevels: true},
		{NumAgents: 2, NumTrees: 2, MaxDepth: 4, MaxBranch: 3, Synchronous: false, ObservationLevels: false},
		{NumAgents: 1, NumTrees: 2, MaxDepth: 3, MaxBranch: 3, Synchronous: false, ObservationLevels: true},
	}
	for s := 0; s < numSystems; s++ {
		seed := int64(1000 + s)
		rng := rand.New(rand.NewSource(seed))
		cfg := cfgs[s%len(cfgs)]
		sys := gen.MustSystem(rng, cfg)
		props := make(map[string]system.Fact, propsPerSys)
		for j := 0; j < propsPerSys; j++ {
			name := fmt.Sprintf("p%d", j)
			props[name] = gen.RandomFact(rng, sys, name)
		}
		for _, sa := range sampleAssignments(sys) {
			P := core.NewProbAssignment(sys, sa)
			dense := NewEvaluator(sys, P, props)
			naive := NewReferenceEvaluator(sys, P, props)

			for j := 0; j < formulasPerSys; j++ {
				f := randomFormula(rng, formulaDepth, propsPerSys, cfg.NumAgents)
				want, errN := naive.Extension(f)
				got, errD := dense.Extension(f)
				if (errN == nil) != (errD == nil) {
					t.Fatalf("seed %d %s formula %s: error disagreement: naive %v, dense %v", seed, sa.Name(), f, errN, errD)
				}
				if errN != nil {
					continue
				}
				if !got.Equal(want) {
					for p := range sys.Points() {
						if got.Contains(p) != want.Contains(p) {
							t.Errorf("seed %d %s formula %s: disagreement at %v: dense %v, naive %v",
								seed, sa.Name(), f, p, got.Contains(p), want.Contains(p))
						}
					}
					t.Fatalf("seed %d %s formula %s: extensions differ", seed, sa.Name(), f)
				}
			}
		}
	}
}

// TestConcurrentSharedIndex checks the sharing contract under the race
// detector: many evaluators over one system concurrently build and read the
// shared point index, cell partitions and resolved spaces. Each goroutine
// owns its evaluator; only System/Index state is shared.
func TestConcurrentSharedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := gen.Config{NumAgents: 3, NumTrees: 2, MaxDepth: 4, MaxBranch: 3, Synchronous: true, ObservationLevels: true}
	sys := gen.MustSystem(rng, cfg)
	props := map[string]system.Fact{"p0": gen.RandomFact(rng, sys, "p0")}
	P := core.NewProbAssignment(sys, core.Post(sys))

	formulas := []Formula{
		Common([]system.AgentID{0, 1, 2}, Prop("p0")),
		CommonPr([]system.AgentID{0, 1}, Prop("p0"), rat.Half),
		Always(Implies(Prop("p0"), K(0, Prop("p0")))),
		Until(Prop("p0"), PrGeq(2, Prop("p0"), rat.New(1, 3))),
	}

	// Reference answers, computed single-threaded.
	ref := NewEvaluator(sys, P, props)
	want := make([]*system.DenseSet, len(formulas))
	for i, f := range formulas {
		ext, err := ref.DenseExtension(f)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ext
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := NewEvaluator(sys, P, props)
			for i, f := range formulas {
				ext, err := ev.DenseExtension(f)
				if err != nil {
					errs <- err
					return
				}
				if !ext.Equal(want[i]) {
					errs <- fmt.Errorf("concurrent evaluation of %s disagrees", f)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// forceParallel drops both sharding thresholds so the parallel kernels and
// the sharded set-algebra combines engage on small differential fixtures,
// and returns the restore function.
func forceParallel() func() {
	oldPoints, oldWords := parMinPoints, parMinWords
	parMinPoints, parMinWords = 1, 1
	return func() { parMinPoints, parMinWords = oldPoints, oldWords }
}

// TestDifferentialParallelVsReference repeats the executable-specification
// check with the parallel engine forced on: budget 4, sharding threshold 1.
// Every operator class must agree point-for-point with the naive
// ReferenceEvaluator no matter how the sweeps were sharded.
func TestDifferentialParallelVsReference(t *testing.T) {
	defer forceParallel()()
	const (
		numSystems     = 20
		formulasPerSys = 5
		propsPerSys    = 3
		formulaDepth   = 4
	)
	cfgs := []gen.Config{
		gen.DefaultConfig(),
		{NumAgents: 3, NumTrees: 2, MaxDepth: 3, MaxBranch: 3, Synchronous: true, ObservationLevels: true},
		{NumAgents: 2, NumTrees: 3, MaxDepth: 4, MaxBranch: 2, Synchronous: true, ObservationLevels: true},
		{NumAgents: 1, NumTrees: 1, MaxDepth: 4, MaxBranch: 3, Synchronous: true, ObservationLevels: false},
	}
	for s := 0; s < numSystems; s++ {
		rng := rand.New(rand.NewSource(int64(4000 + s)))
		cfg := cfgs[s%len(cfgs)]
		sys := gen.MustSystem(rng, cfg)
		props := make(map[string]system.Fact, propsPerSys)
		for j := 0; j < propsPerSys; j++ {
			name := fmt.Sprintf("p%d", j)
			props[name] = gen.RandomFact(rng, sys, name)
		}
		P := core.NewProbAssignment(sys, core.Post(sys))
		dense := NewEvaluator(sys, P, props)
		dense.SetEngine(NewEngine(4))
		naive := NewReferenceEvaluator(sys, P, props)

		for j := 0; j < formulasPerSys; j++ {
			f := randomFormula(rng, formulaDepth, propsPerSys, cfg.NumAgents)
			want, errN := naive.Extension(f)
			got, errD := dense.Extension(f)
			if (errN == nil) != (errD == nil) {
				t.Fatalf("seed %d formula %s: error disagreement: naive %v, parallel %v", 4000+s, f, errN, errD)
			}
			if errN != nil {
				continue
			}
			if !got.Equal(want) {
				t.Fatalf("seed %d formula %s: parallel extension differs from reference", 4000+s, f)
			}
		}
	}
}

// TestDifferentialParallelScaleSystem pits the budget-4 engine against the
// reference evaluator on a broom system large enough that the fan-outs
// really split the sweeps into several shards, covering every operator
// family the engine shards.
func TestDifferentialParallelScaleSystem(t *testing.T) {
	sys := gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 2, NumRuns: 256, RunLen: 6, Buckets: 8})
	props := map[string]system.Fact{
		"p": gen.ScaleFact("p", 3),
		"q": gen.ScaleFact("q", 5),
	}
	P := core.NewProbAssignment(sys, core.Post(sys))
	dense := NewEvaluator(sys, P, props)
	dense.SetEngine(NewEngine(4))
	defer forceParallel()()
	naive := NewReferenceEvaluator(sys, P, props)

	g := []system.AgentID{0, 1}
	formulas := []Formula{
		Prop("p"),
		And(Prop("p"), Not(Prop("q"))),
		K(0, Prop("p")),
		Everyone(g, Prop("p")),
		Common(g, Or(Prop("p"), Prop("q"))),
		PrGeq(0, Prop("p"), rat.New(1, 3)),
		PrLeq(1, Prop("q"), rat.New(2, 3)),
		EveryonePr(g, Prop("p"), rat.Half),
		CommonPr(g, Prop("p"), rat.New(1, 3)),
		Always(Implies(Prop("p"), K(1, Prop("p")))),
		Until(Prop("p"), PrGeq(1, Prop("q"), rat.New(1, 5))),
	}
	for _, f := range formulas {
		want, err := naive.Extension(f)
		if err != nil {
			t.Fatalf("reference %s: %v", f, err)
		}
		got, err := dense.Extension(f)
		if err != nil {
			t.Fatalf("parallel %s: %v", f, err)
		}
		if !got.Equal(want) {
			t.Fatalf("formula %s: parallel extension differs from reference", f)
		}
	}
}

// TestConcurrentParallelSharedIndex is the race-detector drill for the full
// sharing story: concurrent evaluators borrow extra workers from one shared
// budget-4 Engine, report into its counters, and build/read one shared
// system.Index and cell partition while their shards are running.
func TestConcurrentParallelSharedIndex(t *testing.T) {
	defer forceParallel()()
	sys := gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 2, NumRuns: 128, RunLen: 5, Buckets: 8})
	props := map[string]system.Fact{"p": gen.ScaleFact("p", 3)}
	P := core.NewProbAssignment(sys, core.Post(sys))

	g := []system.AgentID{0, 1}
	formulas := []Formula{
		Common(g, Prop("p")),
		CommonPr(g, Prop("p"), rat.Half),
		Always(Implies(Prop("p"), K(0, Prop("p")))),
		Until(Prop("p"), PrGeq(1, Prop("p"), rat.New(1, 3))),
	}

	ref := NewEvaluator(sys, P, props)
	want := make([]*system.DenseSet, len(formulas))
	for i, f := range formulas {
		ext, err := ref.DenseExtension(f)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ext
	}

	eng := NewEngine(4)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := NewEvaluator(sys, P, props)
			ev.SetEngine(eng)
			for i, f := range formulas {
				ext, err := ev.DenseExtension(f)
				if err != nil {
					errs <- err
					return
				}
				if !ext.Equal(want[i]) {
					errs <- fmt.Errorf("concurrent parallel evaluation of %s disagrees", f)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if eng.gate.tryAcquire(3) != 3 {
		t.Fatal("gate tokens leaked: not all extra workers were released")
	}
	if eng.SerialPaths.Load()+eng.ParallelPaths.Load() == 0 {
		t.Fatal("engine metrics recorded no regions")
	}
}
