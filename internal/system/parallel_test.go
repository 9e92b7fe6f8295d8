package system

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"kpa/internal/rat"
)

// broomSystem builds a single-tree "broom" system — root with runs children,
// each a probability-1 chain of length runLen — large enough that sharded
// sweeps actually split. Agent i observes bucket (run / buckets^i) % buckets,
// so cells span many runs and differ per agent.
func broomSystem(t testing.TB, agents, runs, runLen, buckets int) *System {
	t.Helper()
	mk := func(r, k int) GlobalState {
		locals := make([]LocalState, agents)
		div := 1
		for i := 0; i < agents; i++ {
			locals[i] = LocalState(fmt.Sprintf("a%d:t%d:b%d", i, k, (r/div)%buckets))
			div *= buckets
		}
		return GlobalState{Env: fmt.Sprintf("r%d.%d", r, k), Locals: locals}
	}
	root := make([]LocalState, agents)
	for i := range root {
		root[i] = LocalState(fmt.Sprintf("a%d:t0:root", i))
	}
	tb := NewTree("adv", GlobalState{Env: "root", Locals: root})
	p := rat.New(1, int64(runs))
	for r := 0; r < runs; r++ {
		id := tb.Child(0, p, mk(r, 1))
		for k := 2; k < runLen; k++ {
			id = tb.Child(id, rat.One, mk(r, k))
		}
	}
	sys, err := New(agents, tb.MustBuild())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sys
}

func TestParRangePartitions(t *testing.T) {
	cases := []struct{ n, align, workers int }{
		{0, 1, 4}, {1, 1, 4}, {7, 1, 1}, {7, 1, 4}, {100, 1, 3},
		{100, 64, 4}, {64, 64, 4}, {65, 64, 4}, {128, 64, 2},
		{1000, 64, 8}, {1000, 64, 1000}, {60, 64, 4}, {63, 64, 16},
	}
	for _, c := range cases {
		covered := make([]int32, c.n)
		var mu sync.Mutex
		bounds := make(map[int][2]int)
		ParRange(c.n, c.align, c.workers, func(shard, lo, hi int) {
			mu.Lock()
			bounds[shard] = [2]int{lo, hi}
			mu.Unlock()
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		for i, v := range covered {
			if v != 1 {
				t.Fatalf("n=%d align=%d workers=%d: index %d covered %d times",
					c.n, c.align, c.workers, i, v)
			}
		}
		for shard, b := range bounds {
			if b[0] > 0 && c.align > 1 && b[0]%c.align != 0 {
				t.Fatalf("n=%d align=%d workers=%d: shard %d starts at unaligned %d",
					c.n, c.align, c.workers, shard, b[0])
			}
		}
		// Determinism: a second invocation must reproduce the boundaries —
		// PartitionBy's phase 3 depends on matching phase 1's shards exactly.
		ParRange(c.n, c.align, c.workers, func(shard, lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			if b, ok := bounds[shard]; !ok || b != [2]int{lo, hi} {
				t.Errorf("n=%d align=%d workers=%d: shard %d bounds changed: %v vs [%d,%d)",
					c.n, c.align, c.workers, shard, b, lo, hi)
			}
		})
	}
}

func TestParRangeSerialWhenOneWorker(t *testing.T) {
	calls := 0
	ParRange(1000, 64, 1, func(shard, lo, hi int) {
		calls++
		if shard != 0 || lo != 0 || hi != 1000 {
			t.Fatalf("serial call got shard=%d [%d,%d)", shard, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("body ran %d times, want 1", calls)
	}
}

func TestGate(t *testing.T) {
	g := NewGate(4)
	if got := g.TryAcquire(3); got != 3 {
		t.Fatalf("TryAcquire(3) = %d, want 3", got)
	}
	if got := g.TryAcquire(3); got != 1 {
		t.Fatalf("TryAcquire(3) on 1-token gate = %d, want 1", got)
	}
	if got := g.TryAcquire(1); got != 0 {
		t.Fatalf("TryAcquire on empty gate = %d, want 0", got)
	}
	g.Release(4)
	if got := g.TryAcquire(10); got != 4 {
		t.Fatalf("TryAcquire(10) after release = %d, want 4", got)
	}
	if got := g.TryAcquire(0); got != 0 {
		t.Fatalf("TryAcquire(0) = %d, want 0", got)
	}
	empty := NewGate(0)
	if got := empty.TryAcquire(1); got != 0 {
		t.Fatalf("zero-capacity gate granted %d tokens", got)
	}
}

func TestGateConcurrent(t *testing.T) {
	g := NewGate(8)
	var wg sync.WaitGroup
	var held atomic.Int64
	var maxHeld atomic.Int64
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				k := g.TryAcquire(3)
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
				g.Release(k)
			}
		}()
	}
	wg.Wait()
	if m := maxHeld.Load(); m > 8 {
		t.Fatalf("gate allowed %d tokens held concurrently, capacity 8", m)
	}
	if got := g.TryAcquire(100); got != 8 {
		t.Fatalf("tokens leaked: final capacity %d, want 8", got)
	}
}

func TestDenseAlgebraParMatchesSerial(t *testing.T) {
	sys := broomSystem(t, 2, 40, 6, 4)
	idx := sys.Index()
	a, b := idx.NewDense(), idx.NewDense()
	for id := 0; id < idx.NumPoints(); id++ {
		if id%3 == 0 {
			a.Add(id)
		}
		if id%5 != 0 {
			b.Add(id)
		}
	}
	for _, workers := range []int{2, 4, 7} {
		if got, want := a.Union(b, workers), a.Union(b, 1); !got.Equal(want) {
			t.Fatalf("Union(%d) differs from Union(1)", workers)
		}
		if got, want := a.Intersect(b, workers), a.Intersect(b, 1); !got.Equal(want) {
			t.Fatalf("Intersect(%d) differs from Intersect(1)", workers)
		}
		if got, want := a.Complement(workers), a.Complement(1); !got.Equal(want) {
			t.Fatalf("Complement(%d) differs from Complement(1)", workers)
		}
	}
}

func TestFirstN(t *testing.T) {
	sys := twoTreeSystem(t)
	idx := sys.Index()
	full := idx.FullDense()
	all := full.Sorted()
	for _, n := range []int{0, 1, 2, len(all), len(all) + 5} {
		got := full.FirstN(n)
		want := n
		if want > len(all) {
			want = len(all)
		}
		if len(got) != want {
			t.Fatalf("FirstN(%d) returned %d points, want %d", n, len(got), want)
		}
		for i, p := range got {
			if p != all[i] {
				t.Fatalf("FirstN(%d)[%d] = %v, want %v", n, i, p, all[i])
			}
		}
	}
}

func TestBuildIndexParallelMatchesSerial(t *testing.T) {
	serial := broomSystem(t, 2, 30, 5, 3).Index()
	par := broomSystem(t, 2, 30, 5, 3).BuildIndex(4)
	if serial.NumPoints() != par.NumPoints() {
		t.Fatalf("NumPoints: serial %d, parallel %d", serial.NumPoints(), par.NumPoints())
	}
	for id := 0; id < serial.NumPoints(); id++ {
		sp, pp := serial.PointAt(id), par.PointAt(id)
		if sp.Run != pp.Run || sp.Time != pp.Time || sp.Tree.Adversary != pp.Tree.Adversary {
			t.Fatalf("PointAt(%d): serial %v, parallel %v", id, sp, pp)
		}
	}
}

// TestCellsParMatchesSerial checks that the cell numbering does not depend
// on the worker count: serial and sharded builds both match the points
// grouped by local state.
func TestCellsParMatchesSerial(t *testing.T) {
	for _, workers := range []int{1, 4} {
		idx := broomSystem(t, 3, 40, 6, 4).Index()
		for i := 0; i < 3; i++ {
			checkCells(t, fmt.Sprintf("workers=%d", workers), idx, AgentID(i), idx.Cells(AgentID(i), workers))
		}
	}
}

// TestKnowExtensionKernel checks the member-walk K kernel against a
// per-point K check: c passes exactly when every point sharing c's local
// state is in ext.
func TestKnowExtensionKernel(t *testing.T) {
	sys := broomSystem(t, 2, 40, 6, 4)
	idx := sys.Index()
	n := idx.NumPoints()
	for _, density := range []int{1, 7, 1 << 30} {
		// ext: every point but one in density, cell-misaligned; the
		// largest density leaves ext full, so every cell passes.
		ext := idx.NewDense()
		for id := 0; id < n; id++ {
			if id%density != 0 || density == 1<<30 {
				ext.Add(id)
			}
		}
		for _, agent := range []AgentID{0, 1} {
			want := idx.NewDense()
			for c := 0; c < n; c++ {
				knows := true
				for d := 0; d < n && knows; d++ {
					if idx.PointAt(d).Local(agent) == idx.PointAt(c).Local(agent) && !ext.Contains(d) {
						knows = false
					}
				}
				if knows {
					want.Add(c)
				}
			}
			cells := idx.Cells(agent, 1)
			for _, workers := range []int{1, 3, 8} {
				if got := cells.KnowExtension(ext, workers, nil); !got.Equal(want) {
					t.Fatalf("density %d agent %d: KnowExtension(workers=%d) differs from the per-point K check", density, agent, workers)
				}
			}
		}
	}
	// A stop that fires immediately abandons the sweep.
	stopped := idx.Cells(0, 1).KnowExtension(idx.FullDense(), 4, func() bool { return true })
	if !stopped.IsEmpty() {
		t.Fatal("KnowExtension with firing stop returned a non-empty set")
	}
}

func TestNewTrustedMatchesNew(t *testing.T) {
	build := func(ctor func(int, ...*Tree) (*System, error)) *System {
		tb := NewTree("adv", gs("root", "x:0", "y:0"))
		h := tb.Child(0, rat.Half, gs("h", "x:h", "y:1"))
		tb.Child(0, rat.Half, gs("t", "x:t", "y:1"))
		tb.Child(h, rat.One, gs("hh", "x:hh", "y:2"))
		sys, err := ctor(2, tb.MustBuild())
		if err != nil {
			t.Fatalf("construct: %v", err)
		}
		return sys
	}
	a, b := build(New), build(NewTrusted)
	if a.NumPoints() != b.NumPoints() {
		t.Fatalf("NumPoints: New %d, NewTrusted %d", a.NumPoints(), b.NumPoints())
	}
	if a.Points().Len() != b.Points().Len() {
		t.Fatalf("Points: New %d, NewTrusted %d", a.Points().Len(), b.Points().Len())
	}
	for p := range a.Points() {
		q := Point{Tree: b.Trees()[0], Run: p.Run, Time: p.Time}
		if got, want := b.K(0, q).Len(), a.K(0, p).Len(); got != want {
			t.Fatalf("K(0, %v): NewTrusted %d points, New %d", p, got, want)
		}
	}
	if a.IsSynchronous() != b.IsSynchronous() {
		t.Fatal("IsSynchronous differs between New and NewTrusted")
	}
	// NewTrusted still validates agent counts and duplicate adversaries.
	if _, err := NewTrusted(0); err == nil {
		t.Fatal("NewTrusted(0) succeeded")
	}
	tb1 := NewTree("dup", gs("r1", "x"))
	tb2 := NewTree("dup", gs("r2", "x"))
	if _, err := NewTrusted(1, tb1.MustBuild(), tb2.MustBuild()); err == nil {
		t.Fatal("NewTrusted with duplicate adversary names succeeded")
	}
}
