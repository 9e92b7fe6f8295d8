package logic

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
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

// differentialConfigs are the gen configurations of
// TestDifferentialDenseVsReference and FuzzDifferential. Half of them are
// asynchronous, so agents without a clock have multi-point run fibers
// where inner and outer measure differ.
var differentialConfigs = []gen.Config{
	gen.DefaultConfig(),
	{NumAgents: 3, NumTrees: 2, MaxDepth: 3, MaxBranch: 3, Synchronous: true, ObservationLevels: true},
	{NumAgents: 2, NumTrees: 3, MaxDepth: 4, MaxBranch: 2, Synchronous: true, ObservationLevels: true},
	{NumAgents: 1, NumTrees: 1, MaxDepth: 4, MaxBranch: 3, Synchronous: true, ObservationLevels: false},
	{NumAgents: 2, NumTrees: 2, MaxDepth: 3, MaxBranch: 3, Synchronous: false, ObservationLevels: true},
	{NumAgents: 3, NumTrees: 1, MaxDepth: 4, MaxBranch: 2, Synchronous: false, ObservationLevels: true},
	{NumAgents: 2, NumTrees: 2, MaxDepth: 4, MaxBranch: 3, Synchronous: false, ObservationLevels: false},
	{NumAgents: 1, NumTrees: 2, MaxDepth: 3, MaxBranch: 3, Synchronous: false, ObservationLevels: true},
}

// The shape of a differential case: each system gets differentialProps
// random facts p0, p1, ..., and its formulas have depth differentialDepth.
const (
	differentialProps = 3
	differentialDepth = 4
)

// differentialSystem builds a differential case's system and facts from
// rng, which then goes on to draw the case's formulas.
func differentialSystem(t testing.TB, rng *rand.Rand, cfg gen.Config) (*system.System, map[string]system.Fact) {
	t.Helper()
	sys, err := gen.System(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	props := make(map[string]system.Fact, differentialProps)
	for j := 0; j < differentialProps; j++ {
		name := fmt.Sprintf("p%d", j)
		props[name] = gen.RandomFact(rng, sys, name)
	}
	return sys, props
}

// TestDifferentialDenseVsReference is the executable-specification check:
// on seeded random (system, assignment, formula) cases the dense evaluator
// must agree point-for-point with the retained naive ReferenceEvaluator.
// Every system is checked under the four canonical assignments (post, fut,
// prior, opp) and two that take the engine's per-point path (see
// sampleAssignments) — 60 systems × 6 assignments × 5 formulas.
// FuzzDifferential replays the same cases.
func TestDifferentialDenseVsReference(t *testing.T) {
	const (
		numSystems     = 60
		formulasPerSys = 5
	)
	for s := 0; s < numSystems; s++ {
		seed := int64(1000 + s)
		rng := rand.New(rand.NewSource(seed))
		cfg := differentialConfigs[s%len(differentialConfigs)]
		sys, props := differentialSystem(t, rng, cfg)
		for _, sa := range sampleAssignments(sys) {
			P := core.NewProbAssignment(sys, sa)
			dense := NewEvaluator(sys, P, props)
			naive := NewReferenceEvaluator(sys, P, props)

			for j := 0; j < formulasPerSys; j++ {
				f := randomFormula(rng, differentialDepth, differentialProps, cfg.NumAgents)
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

// FuzzDifferential maps (system seed, config, assignment, formula) to a
// differential case: the gen system of differentialConfigs[config] drawn
// from the seed with its facts, under sampleAssignments[assign], checking
// the formula-th randomFormula that the system's generator draws after its
// facts. Two evaluators over one model, the second over the model the
// first warmed, must each agree with ReferenceEvaluator. The seed corpus
// is TestDifferentialDenseVsReference's 1,800 cases — its system s,
// assignment a and formula j are (1000+s, s mod 8, a, 5a+j) — so plain go
// test replays them.
func FuzzDifferential(f *testing.F) {
	for s := 0; s < 60; s++ {
		for a := 0; a < 6; a++ {
			for j := 0; j < 5; j++ {
				f.Add(int64(1000+s), uint8(s%len(differentialConfigs)), uint8(a), uint8(5*a+j))
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, config, assign, formula uint8) {
		rng := rand.New(rand.NewSource(seed))
		cfg := differentialConfigs[int(config)%len(differentialConfigs)]
		sys, props := differentialSystem(t, rng, cfg)
		var phi Formula
		for k := 0; k <= int(formula); k++ {
			phi = randomFormula(rng, differentialDepth, differentialProps, cfg.NumAgents)
		}
		sas := sampleAssignments(sys)
		sa := sas[int(assign)%len(sas)]
		P := core.NewProbAssignment(sys, sa)
		want, errN := NewReferenceEvaluator(sys, P, props).Extension(phi)
		m := NewModel(sys, sa, props)
		for k, e := range []*Evaluator{m.NewEvaluator(), m.NewEvaluator()} {
			got, errD := e.Extension(phi)
			if (errN == nil) != (errD == nil) {
				t.Fatalf("%s %s, evaluator %d: error disagreement: reference %v, dense %v", sa.Name(), phi, k, errN, errD)
			}
			if errN == nil && !got.Equal(want) {
				t.Fatalf("%s %s, evaluator %d: dense extension differs from reference", sa.Name(), phi, k)
			}
		}
	})
}

// TestConcurrentSharedIndex checks the sharing contract under the race
// detector: on a synchronous and an asynchronous system, under each of the
// six sampleAssignments, goroutines with an evaluator each over one model
// concurrently build and read the shared point index, cell partitions,
// proposition extensions and space tables (see shareModel).
func TestConcurrentSharedIndex(t *testing.T) {
	for _, cfg := range []gen.Config{
		{NumAgents: 3, NumTrees: 2, MaxDepth: 4, MaxBranch: 3, Synchronous: true, ObservationLevels: true},
		{NumAgents: 2, NumTrees: 2, MaxDepth: 4, MaxBranch: 3, Synchronous: false, ObservationLevels: true},
	} {
		rng := rand.New(rand.NewSource(7))
		sys := gen.MustSystem(rng, cfg)
		props := map[string]system.Fact{"p0": gen.RandomFact(rng, sys, "p0")}
		last := system.AgentID(cfg.NumAgents - 1)
		formulas := []Formula{
			Common(sys.Agents(), Prop("p0")),
			CommonPr(sys.Agents(), Prop("p0"), rat.Half),
			Always(Implies(Prop("p0"), K(0, Prop("p0")))),
			Until(Prop("p0"), PrGeq(last, Prop("p0"), rat.New(1, 3))),
		}
		for _, sa := range sampleAssignments(sys) {
			shareModel(t, fmt.Sprintf("sync=%v %s", cfg.Synchronous, sa.Name()), sys, sa, props, formulas, 16, nil)
		}
	}
}

// countingFacts wraps every fact so that each Holds call adds one to calls.
func countingFacts(props map[string]system.Fact, calls *atomic.Int64) map[string]system.Fact {
	out := make(map[string]system.Fact, len(props))
	for name, fact := range props {
		out[name] = system.NewFact(name, func(p system.Point) bool {
			calls.Add(1)
			return fact.Holds(p)
		})
	}
	return out
}

// buildCounter wraps a sample-space assignment and counts the calls that a
// space-table build makes to it: Blocks on a partition assignment, Sample
// on the per-point path. It keeps the wrapped assignment's sample keys.
type buildCounter struct {
	core.SampleAssignment
	calls *atomic.Int64
}

func (a buildCounter) Sample(i system.AgentID, c system.Point) system.PointSet {
	a.calls.Add(1)
	return a.SampleAssignment.Sample(i, c)
}

func (a buildCounter) SampleKey(i system.AgentID, c system.Point) (string, bool) {
	if keyed, ok := a.SampleAssignment.(core.KeyedAssignment); ok {
		return keyed.SampleKey(i, c)
	}
	return "", false
}

func (a buildCounter) Blocks(x *system.Index, i system.AgentID, workers int) *system.Partition {
	pa, ok := a.SampleAssignment.(core.PartitionAssignment)
	if !ok {
		return nil
	}
	a.calls.Add(1)
	return pa.Blocks(x, i, workers)
}

// shareModel is the sharing drill for one (system, assignment) model:
// goroutines, each with its own evaluator over the model and the engine
// eng, race to build its proposition extensions and space tables while
// evaluating the formulas, and must agree with an evaluator over a model
// of its own. Every evaluator must then read the same table pointers, the
// model's, and a further evaluator over the warm model must build nothing:
// it calls no fact and makes no Blocks or Sample call.
func shareModel(t *testing.T, label string, sys *system.System, sa core.SampleAssignment, props map[string]system.Fact, formulas []Formula, goroutines int, eng *Engine) {
	t.Helper()
	ref := NewEvaluator(sys, core.NewProbAssignment(sys, sa), props)
	want := make([]*system.DenseSet, len(formulas))
	for i, f := range formulas {
		ext, err := ref.DenseExtension(f)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ext
	}

	var holds, builds atomic.Int64
	m := NewModel(sys, buildCounter{sa, &builds}, countingFacts(props, &holds))
	names := make([]string, 0, len(props))
	for name := range props {
		names = append(names, name)
	}
	sort.Strings(names)
	// tables reads ev's proposition extensions and space tables, building
	// any that are missing.
	tables := func(ev *Evaluator) ([]any, error) {
		var out []any
		for _, name := range names {
			ext, err := ev.DenseExtension(Prop(name))
			if err != nil {
				return nil, err
			}
			out = append(out, ext)
		}
		for _, i := range sys.Agents() {
			sx, err := ev.spaceIndexFor(i)
			if err != nil {
				return nil, err
			}
			out = append(out, sx)
		}
		return out, nil
	}
	run := func(ev *Evaluator) error {
		ev.SetEngine(eng)
		for i, f := range formulas {
			ext, err := ev.DenseExtension(f)
			if err != nil {
				return err
			}
			if !ext.Equal(want[i]) {
				return fmt.Errorf("%s: concurrent evaluation of %s disagrees", label, f)
			}
		}
		return nil
	}

	seen := make([][]any, goroutines)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := range seen {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := m.NewEvaluator()
			err := run(ev)
			if err == nil {
				seen[g], err = tables(ev)
			}
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g, got := range seen {
		for k := range got {
			if got[k] != seen[0][k] {
				t.Fatalf("%s: evaluator %d reads table %d at another address than evaluator 0", label, g, k)
			}
		}
	}

	h, b := holds.Load(), builds.Load()
	further := m.NewEvaluator()
	if err := run(further); err != nil {
		t.Fatal(err)
	}
	got, err := tables(further)
	if err != nil {
		t.Fatal(err)
	}
	for k := range got {
		if got[k] != seen[0][k] {
			t.Fatalf("%s: a further evaluator reads table %d at another address", label, k)
		}
	}
	if holds.Load() != h || builds.Load() != b {
		t.Fatalf("%s: a further evaluator over the warm model made %d fact calls and %d build calls, want none",
			label, holds.Load()-h, builds.Load()-b)
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
// sharing story: under each of the six sampleAssignments, concurrent
// evaluators over one model borrow extra workers from one shared budget-4
// Engine, report into its counters, and build/read one shared
// system.Index, cell partition, proposition extension and space table per
// agent while their shards are running (see shareModel).
func TestConcurrentParallelSharedIndex(t *testing.T) {
	defer forceParallel()()
	sys := gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 2, NumRuns: 128, RunLen: 5, Buckets: 8})
	props := map[string]system.Fact{"p": gen.ScaleFact("p", 3)}

	g := []system.AgentID{0, 1}
	formulas := []Formula{
		Common(g, Prop("p")),
		CommonPr(g, Prop("p"), rat.Half),
		Always(Implies(Prop("p"), K(0, Prop("p")))),
		Until(Prop("p"), PrGeq(1, Prop("p"), rat.New(1, 3))),
	}

	eng := NewEngine(4)
	for _, sa := range sampleAssignments(sys) {
		shareModel(t, sa.Name(), sys, sa, props, formulas, 8, eng)
	}
	if eng.gate.tryAcquire(3) != 3 {
		t.Fatal("gate tokens leaked: not all extra workers were released")
	}
	if eng.SerialPaths.Load()+eng.ParallelPaths.Load() == 0 {
		t.Fatal("engine metrics recorded no regions")
	}
}
