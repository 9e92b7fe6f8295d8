package system

import (
	"fmt"
	"runtime"
	"strings"
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

// goid returns the calling goroutine's ID, read from its stack header
// ("goroutine 18 [running]: ...").
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// span is one part a fan-out handed a shard: its offset in dst, its
// length and the goroutine that ran it.
type span struct {
	lo, n int
	g     string
}

// fillParts runs ParFill over dst, adds one to every element a shard is
// handed and returns the parts in shard order. It fails t unless every
// part is non-empty and is dst[lo:lo+len(part)] with its capacity cut at
// its end, so that a shard can write only its own elements.
func fillParts(t *testing.T, name string, dst []int32, workers int) []span {
	t.Helper()
	var mu sync.Mutex
	parts := make(map[int]span)
	ParFill(dst, workers, func(shard int, part []int32, lo int) {
		if len(part) == 0 || cap(part) != len(part) || &part[0] != &dst[lo] {
			t.Errorf("%s: shard %d got len %d cap %d at %d, not its own window of dst", name, shard, len(part), cap(part), lo)
			return
		}
		for j := range part {
			part[j]++
		}
		mu.Lock()
		parts[shard] = span{lo, len(part), goid()}
		mu.Unlock()
	})
	out := make([]span, len(parts))
	for shard, sp := range parts {
		if shard < 0 || shard >= len(parts) {
			t.Fatalf("%s: shard %d of %d", name, shard, len(parts))
		}
		out[shard] = sp
	}
	return out
}

// TestParRangePartitions checks how ParFill and ParMap partition a range
// among shards, for lengths 0 to 1000 and 1 to 64 workers: the parts tile
// dst exactly once in shard order, each is its own window of dst, there
// are no more parts than workers, the first runs on the caller, the
// boundaries repeat for an equal length and worker count (PartitionBy's
// phase 3 relies on this), and ParMap splits the same way and returns its
// results in shard order.
func TestParRangePartitions(t *testing.T) {
	caller := goid()
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		for _, workers := range []int{1, 2, 3, 7, 64} {
			name := fmt.Sprintf("len=%d workers=%d", n, workers)
			dst := make([]int32, n)
			first := fillParts(t, name, dst, workers)
			for i, v := range dst {
				if v != 1 {
					t.Fatalf("%s: element %d written %d times", name, i, v)
				}
			}
			next := 0
			for shard, sp := range first {
				if sp.lo != next {
					t.Fatalf("%s: shard %d starts at %d, want %d", name, shard, sp.lo, next)
				}
				next += sp.n
			}
			switch {
			case len(first) > workers:
				t.Fatalf("%s: %d parts for %d workers", name, len(first), workers)
			case n > 0 && first[0].g != caller:
				t.Fatalf("%s: the first part ran off the calling goroutine", name)
			}
			second := fillParts(t, name, dst, workers)
			if len(second) != len(first) {
				t.Fatalf("%s: %d parts, then %d on an equal call", name, len(first), len(second))
			}
			for shard := range first {
				if a, b := first[shard], second[shard]; a.lo != b.lo || a.n != b.n {
					t.Fatalf("%s: boundaries changed between equal calls: %v vs %v", name, first, second)
				}
			}
			got := ParMap(dst, workers, func(shard int, part []int32, lo int) span {
				return span{lo, len(part), ""}
			})
			if len(got) != len(first) {
				t.Fatalf("%s: ParMap returned %d results for %d parts", name, len(got), len(first))
			}
			for shard, sp := range got {
				if sp.lo != first[shard].lo || sp.n != first[shard].n {
					t.Fatalf("%s: ParMap result %d is part %v, want %v", name, shard, sp, first[shard])
				}
			}
		}
	}
}

// TestParRangeSerialWhenOneWorker checks that with one worker, or one
// element, ParFill runs fill once, on the calling goroutine, over all of
// dst and ParMap returns one result computed there; and that with an
// empty dst neither calls its body.
func TestParRangeSerialWhenOneWorker(t *testing.T) {
	caller := goid()
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		for _, workers := range []int{1, 2, 3, 7, 64} {
			if n > 1 && workers > 1 {
				continue
			}
			name := fmt.Sprintf("len=%d workers=%d", n, workers)
			want := []span{{0, n, caller}}
			if n == 0 {
				want = nil
			}
			parts := fillParts(t, name, make([]int32, n), workers)
			got := ParMap(make([]int32, n), workers, func(shard int, part []int32, lo int) span {
				return span{lo, len(part), goid()}
			})
			for _, res := range [][]span{parts, got} {
				if len(res) != len(want) || len(res) == 1 && res[0] != want[0] {
					t.Fatalf("%s: fill ran as %v, want %v", name, res, want)
				}
			}
		}
	}
}

func TestDenseAlgebraParMatchesSerial(t *testing.T) {
	sys := broomSystem(t, 2, 40, 6, 4)
	idx := sys.Index()
	a, b := idx.NewDense(), idx.NewDense()
	for id := 0; id < idx.NumPoints(); id++ {
		if id%3 == 0 {
			a.add(id)
		}
		if id%5 != 0 {
			b.add(id)
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

// unevenSystem builds a two-tree system whose runs are 3 and 70 points
// long, so sharded index fills start and stop in the middle of runs.
func unevenSystem(t testing.TB) *System {
	t.Helper()
	var trees []*Tree
	for ti, lens := range [][]int{{3, 70}, {70, 3}} {
		env := func(r, k int) string { return fmt.Sprintf("t%d.r%d.%d", ti, r, k) }
		tb := NewTree(fmt.Sprintf("t%d", ti), gs(env(0, 0), "a:root"))
		for r, n := range lens {
			id := tb.Child(0, rat.Half, gs(env(r, 1), fmt.Sprintf("a:%d", r)))
			for k := 2; k < n; k++ {
				id = tb.Child(id, rat.One, gs(env(r, k), fmt.Sprintf("a:%d", k)))
			}
		}
		trees = append(trees, tb.MustBuild())
	}
	sys, err := New(1, trees...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sys
}

// TestBuildIndexParallelMatchesSerial checks the sharded point fill
// against the serial one on equal runs and on runs of 3 and 70 points,
// where shard boundaries fall inside runs.
func TestBuildIndexParallelMatchesSerial(t *testing.T) {
	systems := map[string]func() *System{
		"broom":  func() *System { return broomSystem(t, 2, 30, 5, 3) },
		"uneven": func() *System { return unevenSystem(t) },
	}
	for name, build := range systems {
		serial := build().Index()
		for _, workers := range []int{1, 2, 3, 8} {
			par := build().BuildIndex(workers)
			if serial.NumPoints() != par.NumPoints() {
				t.Fatalf("%s workers=%d: NumPoints serial %d, parallel %d", name, workers, serial.NumPoints(), par.NumPoints())
			}
			for id := 0; id < serial.NumPoints(); id++ {
				sp, pp := serial.PointAt(id), par.PointAt(id)
				if sp.Run != pp.Run || sp.Time != pp.Time || sp.Tree.Adversary != pp.Tree.Adversary {
					t.Fatalf("%s workers=%d: PointAt(%d) serial %v, parallel %v", name, workers, id, sp, pp)
				}
			}
		}
	}
}

// TestSelectAndComplementTailBits checks Select and Complement against a
// per-point check on a universe that ends inside a word, at 1, 3 and 8
// workers: the result matches and no bit past the last point is set.
// (TestSpreadMatchesPerPoint checks the same of Spread's sweep.)
func TestSelectAndComplementTailBits(t *testing.T) {
	idx := broomSystem(t, 2, 130, 5, 4).Index()
	n := idx.NumPoints()
	if n%64 == 0 {
		t.Fatalf("%d points: the fixture must leave a partial last word", n)
	}
	keep := func(id int) bool { return id%3 == 0 || id == n-1 }
	check := func(what string, got *DenseSet, want func(id int) bool) {
		t.Helper()
		for id := 0; id < n; id++ {
			if got.Contains(id) != want(id) {
				t.Fatalf("%s: point %d is %v, want %v", what, id, got.Contains(id), want(id))
			}
		}
		if tail := got.bits[len(got.bits)-1] >> (n % 64); tail != 0 {
			t.Fatalf("%s: bits set past NumPoints", what)
		}
	}
	for _, workers := range []int{1, 3, 8} {
		sel := idx.Select(workers, nil, keep)
		check(fmt.Sprintf("Select(workers=%d)", workers), sel, keep)
		check(fmt.Sprintf("Complement(workers=%d)", workers), sel.Complement(workers), func(id int) bool { return !keep(id) })
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

// knowsByLocal is the K check by local state: c passes exactly when every
// point sharing c's local state for agent is in ext.
func knowsByLocal(idx *Index, agent AgentID, ext *DenseSet) *DenseSet {
	allIn := make(map[LocalState]bool)
	for id := 0; id < idx.NumPoints(); id++ {
		l := idx.PointAt(id).Local(agent)
		in, seen := allIn[l]
		allIn[l] = (in || !seen) && ext.Contains(id)
	}
	want := idx.NewDense()
	for id := 0; id < idx.NumPoints(); id++ {
		if allIn[idx.PointAt(id).Local(agent)] {
			want.add(id)
		}
	}
	return want
}

// knowExtensionSets returns the sets TestKnowExtensionKernel checks K
// over: empty, full, near-empty and near-full, cell-misaligned, and
// unions of agent 0's cells, which pass exactly those cells for agent 0
// and straddle the other agents' cells. The near-full sets make the
// member walks give up for the complement visit; the sparse ones do not.
func knowExtensionSets(idx *Index) map[string]*DenseSet {
	n := idx.NumPoints()
	cells := idx.Cells(0, 1)
	sets := map[string]*DenseSet{
		"empty":             idx.NewDense(),
		"full":              idx.FullDense(),
		"one point":         idx.NewDense(),
		"all but one":       idx.FullDense(),
		"every 7th":         idx.NewDense(),
		"all but every 7th": idx.NewDense(),
		"every other cell":  idx.NewDense(),
		"all cells but one": idx.NewDense(),
	}
	sets["one point"].add(n / 2)
	sets["all but one"].bits[n/2/64] &^= 1 << (n / 2 % 64)
	for id := 0; id < n; id++ {
		if id%7 == 0 {
			sets["every 7th"].add(id)
		} else {
			sets["all but every 7th"].add(id)
		}
		if k := cells.BlockOf(id); k%2 == 0 {
			sets["every other cell"].add(id)
		}
		if cells.BlockOf(id) != cells.NumBlocks()/2 {
			sets["all cells but one"].add(id)
		}
	}
	return sets
}

// TestKnowExtensionKernel checks the K kernel — member walks that give up
// for a visit of the complement past that visit's cost — against the K
// check by local state, for every agent, on sets that keep the walks and
// sets that make them give up, at 1, 3 and 8 workers. Then a stop that
// fires at each poll in turn of a full sweep, midway through the walks or
// the visit, must end the sweep within a poll per loop still running.
func TestKnowExtensionKernel(t *testing.T) {
	systems := map[string]*System{
		"broom":      broomSystem(t, 2, 40, 6, 4),
		"wide broom": broomSystem(t, 3, 1200, 6, 8), // 94 words: the visit polls midway
		"uneven":     unevenSystem(t),
	}
	for name, sys := range systems {
		idx := sys.Index()
		for setName, ext := range knowExtensionSets(idx) {
			for agent := AgentID(0); int(agent) < sys.NumAgents(); agent++ {
				want := knowsByLocal(idx, agent, ext)
				cells := idx.Cells(agent, 1)
				for _, workers := range []int{1, 3, 8} {
					if got := cells.KnowExtension(ext, workers, nil); !got.Equal(want) {
						t.Fatalf("%s, %s, agent %d: KnowExtension(workers=%d) differs from the K check by local state",
							name, setName, agent, workers)
					}
				}
			}
		}
	}
	// A stop that fires immediately abandons the sweep.
	idx := systems["broom"].Index()
	stopped := idx.Cells(0, 1).KnowExtension(idx.FullDense(), 4, func() bool { return true })
	if !stopped.IsEmpty() {
		t.Fatal("KnowExtension with firing stop returned a non-empty set")
	}
	idx = systems["wide broom"].Index()
	cells := idx.Cells(1, 1)
	for setName, ext := range knowExtensionSets(idx) {
		for _, workers := range []int{1, 3} {
			var polls atomic.Int64
			if got := cells.KnowExtension(ext, workers, func() bool { polls.Add(1); return false }); !got.Equal(knowsByLocal(idx, 1, ext)) {
				t.Fatalf("%s: a stop that never fires changed KnowExtension(workers=%d)", setName, workers)
			}
			for fireAt := int64(1); fireAt <= polls.Load(); fireAt++ {
				var calls atomic.Int64
				cells.KnowExtension(ext, workers, func() bool { return calls.Add(1) >= fireAt })
				// After the firing poll, each walk shard, the visit and each
				// Spread shard polls at most once more.
				if extra := calls.Load() - fireAt; extra > int64(2*workers+2) {
					t.Fatalf("%s, workers=%d: the sweep polled %d more times after its stop fired at poll %d of %d",
						setName, workers, extra, fireAt, polls.Load())
				}
			}
		}
	}
	// A stop that fires at the visit's second poll, 64 words in, leaves
	// the rest of the visit undone: the cell of a last point outside ext
	// keeps its passing verdict.
	last := idx.NumPoints() - 1
	ext := idx.FullDense()
	ext.bits[last/64] &^= 1 << (last % 64)
	pass := make([]bool, cells.NumBlocks())
	polls := 0
	cells.failOutside(pass, ext, func() bool { polls++; return polls == 2 })
	if !pass[cells.BlockOf(last)] || polls != 2 {
		t.Fatalf("the complement visit polled %d times and went on past the stop that fired at the second", polls)
	}
	if cells.failOutside(pass, ext, nil); pass[cells.BlockOf(last)] {
		t.Fatal("the complement visit missed the last point")
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
