package logic

import (
	"sync"
	"sync/atomic"
	"testing"

	"kpa/internal/core"
	"kpa/internal/gen"
	"kpa/internal/rat"
	"kpa/internal/system"
)

// panicBlocks is a partition assignment whose Blocks panics mid-build.
type panicBlocks struct{ core.SampleAssignment }

func (panicBlocks) Blocks(*system.Index, system.AgentID, int) *system.Partition {
	panic("Blocks failed")
}

// TestBlocksPanicReleasesWorkers: the workers borrowed to build a sample
// space partition come back even when the build panics, so a recovered
// panic does not shrink the engine's budget for the rest of the process.
func TestBlocksPanicReleasesWorkers(t *testing.T) {
	defer forceParallel()()
	sys := gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 2, NumRuns: 64, RunLen: 4, Buckets: 8})
	props := map[string]system.Fact{"p": gen.ScaleFact("p", 3)}
	ev := NewEvaluator(sys, core.NewProbAssignment(sys, panicBlocks{core.Post(sys)}), props)
	eng := NewEngine(4)
	ev.SetEngine(eng)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Blocks did not panic")
			}
		}()
		_, _ = ev.DenseExtension(PrGeq(0, Prop("p"), rat.Half))
	}()
	if got := eng.gate.tryAcquire(3); got != 3 {
		t.Fatalf("gate holds %d of its 3 tokens after a panicking Blocks", got)
	}
}

// TestSmallCombineRunsSerial: a set-algebra combine over fewer than
// parMinWords words does not shard, so it draws no token and counts as one
// serial path, even on a system large enough for the point sweeps to shard
// (81,920 points, 1,280 words).
func TestSmallCombineRunsSerial(t *testing.T) {
	sys := gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 2, NumRuns: 8192, RunLen: 10, Buckets: 32})
	props := map[string]system.Fact{
		"p": gen.ScaleFact("p", 3),
		"q": gen.ScaleFact("q", 5),
	}
	ev := NewEvaluator(sys, core.NewProbAssignment(sys, core.Post(sys)), props)
	eng := NewEngine(4)
	ev.SetEngine(eng)
	for _, f := range []Formula{Prop("p"), Prop("q")} {
		if _, err := ev.DenseExtension(f); err != nil {
			t.Fatal(err)
		}
	}
	par, ser := eng.ParallelPaths.Load(), eng.SerialPaths.Load()
	if _, err := ev.DenseExtension(And(Prop("p"), Prop("q"))); err != nil {
		t.Fatal(err)
	}
	if d := eng.ParallelPaths.Load() - par; d != 0 {
		t.Errorf("combine counted %d parallel paths, want 0", d)
	}
	if d := eng.SerialPaths.Load() - ser; d != 1 {
		t.Errorf("combine counted %d serial paths, want 1", d)
	}
	if got := eng.gate.tryAcquire(3); got != 3 {
		t.Errorf("gate holds %d of its 3 tokens after the combine", got)
	}
}

func TestGate(t *testing.T) {
	g := newGate(4)
	if got := g.tryAcquire(3); got != 3 {
		t.Fatalf("tryAcquire(3) = %d, want 3", got)
	}
	if got := g.tryAcquire(3); got != 1 {
		t.Fatalf("tryAcquire(3) on 1-token gate = %d, want 1", got)
	}
	if got := g.tryAcquire(1); got != 0 {
		t.Fatalf("tryAcquire on empty gate = %d, want 0", got)
	}
	g.release(4)
	if got := g.tryAcquire(10); got != 4 {
		t.Fatalf("tryAcquire(10) after release = %d, want 4", got)
	}
	if got := g.tryAcquire(0); got != 0 {
		t.Fatalf("tryAcquire(0) = %d, want 0", got)
	}
	empty := newGate(0)
	if got := empty.tryAcquire(1); got != 0 {
		t.Fatalf("zero-capacity gate granted %d tokens", got)
	}
}

func TestGateConcurrent(t *testing.T) {
	g := newGate(8)
	var wg sync.WaitGroup
	var held atomic.Int64
	var maxHeld atomic.Int64
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				k := g.tryAcquire(3)
				if k == 0 {
					continue
				}
				h := held.Add(int64(k))
				for {
					m := maxHeld.Load()
					if h <= m || maxHeld.CompareAndSwap(m, h) {
						break
					}
				}
				held.Add(int64(-k))
				g.release(k)
			}
		}()
	}
	wg.Wait()
	if m := maxHeld.Load(); m > 8 {
		t.Fatalf("gate allowed %d tokens held concurrently, capacity 8", m)
	}
	if got := g.tryAcquire(100); got != 8 {
		t.Fatalf("tokens leaked: final capacity %d, want 8", got)
	}
}
