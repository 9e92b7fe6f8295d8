package system

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"kpa/internal/rat"
)

// twoTreeSystem builds a two-tree, two-agent system with runs of different
// lengths so the index has non-trivial run ranges to get right.
func twoTreeSystem(t *testing.T) *System {
	t.Helper()
	tb1 := NewTree("alpha", gs("a0", "x:0", "y:0"))
	h := tb1.Child(0, rat.Half, gs("a-h", "x:h", "y:1"))
	tb1.Child(0, rat.Half, gs("a-t", "x:t", "y:1"))
	tb1.Child(h, rat.One, gs("a-hh", "x:hh", "y:2"))

	tb2 := NewTree("beta", gs("b0", "x:0b", "y:0b"))
	tb2.Child(0, rat.One, gs("b1", "x:1b", "y:1b"))

	sys, err := New(2, tb1.MustBuild(), tb2.MustBuild())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sys
}

func TestIndexRoundTrip(t *testing.T) {
	sys := twoTreeSystem(t)
	idx := sys.Index()

	if idx.NumPoints() != sys.Points().Len() {
		t.Fatalf("NumPoints = %d, want %d", idx.NumPoints(), sys.Points().Len())
	}
	// Every point has an ID, PointAt inverts it, and IDs are dense and
	// distinct.
	seen := make(map[int]bool)
	for p := range sys.Points() {
		id, ok := idx.ID(p)
		if !ok {
			t.Fatalf("no ID for %v", p)
		}
		if id < 0 || id >= idx.NumPoints() {
			t.Fatalf("ID %d out of range for %v", id, p)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %d", id)
		}
		seen[id] = true
		if back := idx.PointAt(id); back != p {
			t.Fatalf("PointAt(%d) = %v, want %v", id, back, p)
		}
	}
	// Foreign points resolve to no ID.
	other := twoTreeSystem(t)
	for p := range other.Points() {
		if _, ok := idx.ID(p); ok {
			t.Fatal("resolved an ID for a point of a different system")
		}
		break
	}
	// Out-of-range coordinates resolve to no ID.
	tree := sys.Trees()[0]
	if _, ok := idx.ID(Point{Tree: tree, Run: 0, Time: 99}); ok {
		t.Error("resolved an ID for an out-of-range time")
	}
	if _, ok := idx.ID(Point{Tree: tree, Run: 99, Time: 0}); ok {
		t.Error("resolved an ID for an out-of-range run")
	}
}

func TestIndexRunRangesContiguous(t *testing.T) {
	sys := twoTreeSystem(t)
	idx := sys.Index()

	total := 0
	for ti, tree := range sys.Trees() {
		for run, start := range idx.runStart[ti] {
			if start != total {
				t.Fatalf("run %s/%d starts at %d, want %d", tree.Adversary, run, start, total)
			}
			n := tree.RunLen(run)
			for k := 0; k < n; k++ {
				p := idx.PointAt(start + k)
				want := Point{Tree: tree, Run: run, Time: k}
				if p != want {
					t.Fatalf("PointAt(%d) = %v, want %v", start+k, p, want)
				}
				// runEnd marks exactly the run's last point.
				id := start + k
				if end := idx.runEnd[id/64]>>(id%64)&1 == 1; end != (k == n-1) {
					t.Fatalf("run %s/%d time %d: run-end bit %v", tree.Adversary, run, k, end)
				}
			}
			total += n
		}
	}
	if total != idx.NumPoints() {
		t.Fatalf("runs cover %d points, want %d", total, idx.NumPoints())
	}
}

// randomLayout builds a system of several trees whose runs have random
// lengths from 1 to maxLen: a tree is a single point (one run of length 1)
// or a broom of probability-1 chains below a root. With enough runs, runs
// start and end at every bit offset of a word and span up to three words.
func randomLayout(t testing.TB, rng *rand.Rand, trees, maxLen int) *System {
	t.Helper()
	var built []*Tree
	for ti := 0; ti < trees; ti++ {
		env := func(r, k int) string { return fmt.Sprintf("t%d.r%d.%d", ti, r, k) }
		tb := NewTree(fmt.Sprintf("t%d", ti), gs(env(0, 0), "a:root"))
		if ti%4 != 3 { // every fourth tree is a lone root
			runs := 1 + rng.Intn(12)
			for r := 0; r < runs; r++ {
				id := tb.Child(0, rat.New(1, int64(runs)), gs(env(r, 1), "a:1"))
				for k, n := 2, 2+rng.Intn(maxLen-1); k < n; k++ {
					id = tb.Child(id, rat.One, gs(env(r, k), fmt.Sprintf("a:%d", k)))
				}
			}
		}
		built = append(built, tb.MustBuild())
	}
	sys, err := New(1, built...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sys
}

// TestNextAndUntilKernels checks Index.Next and Index.Until against their
// definitions walked point by point along each run: on a system whose runs
// have 3 and 70 points, for sets of several densities, and on random
// layouts of several trees with runs of 1 to 130 points, which start and
// end at every bit offset and span up to three words, for random sets.
// Both results must leave the bits past the last point clear.
func TestNextAndUntilKernels(t *testing.T) {
	check := func(label string, idx *Index, l, r *DenseSet) {
		t.Helper()
		n := idx.NumPoints()
		// at reports whether s holds at time k of c's run, false past its
		// end.
		at := func(s *DenseSet, c Point, k int) bool {
			if k >= c.Tree.RunLen(c.Run) {
				return false
			}
			id, _ := idx.ID(Point{Tree: c.Tree, Run: c.Run, Time: k})
			return s.Contains(id)
		}
		next, until := idx.Next(r), idx.Until(l, r)
		for id := 0; id < n; id++ {
			c := idx.PointAt(id)
			if want := at(r, c, c.Time+1); next.Contains(id) != want {
				t.Fatalf("%s: Next at %v = %v, want %v", label, c, !want, want)
			}
			want := false
			for k := c.Time; k < c.Tree.RunLen(c.Run); k++ {
				if at(r, c, k) {
					want = true
					break
				}
				if !at(l, c, k) {
					break
				}
			}
			if until.Contains(id) != want {
				t.Fatalf("%s: Until at %v = %v, want %v", label, c, !want, want)
			}
		}
		if rem := n % 64; rem != 0 {
			for name, s := range map[string]*DenseSet{"Next": next, "Until": until} {
				if s.bits[len(s.bits)-1]>>rem != 0 {
					t.Fatalf("%s: %s set bits past NumPoints", label, name)
				}
			}
		}
	}
	idx := unevenSystem(t).Index()
	for _, mod := range []int{1, 2, 3, 7} {
		l := idx.Select(1, nil, func(id int) bool { return id%mod != 0 })
		r := idx.Select(1, nil, func(id int) bool { return id%(mod+4) == 0 })
		check(fmt.Sprintf("mod %d", mod), idx, l, r)
	}
	rng := rand.New(rand.NewSource(24))
	offsets := make(map[[2]int]bool) // (start, end) bit offsets of runs seen
	longest := 0
	for layout := 0; layout < 40; layout++ {
		idx := randomLayout(t, rng, 2+rng.Intn(4), 130).Index()
		for ti, tree := range idx.System().Trees() {
			for run, start := range idx.runStart[ti] {
				end := start + tree.RunLen(run) - 1
				offsets[[2]int{start % 64, end % 64}] = true
				longest = max(longest, end/64-start/64+1)
			}
		}
		for _, density := range []int{2, 4, 16} {
			// l holds with probability 1 − 1/density, r with 1/density.
			l := idx.Select(1, nil, func(int) bool { return rng.Intn(density) != 0 })
			r := idx.Select(1, nil, func(int) bool { return rng.Intn(density) == 0 })
			check(fmt.Sprintf("layout %d density %d", layout, density), idx, l, r)
		}
	}
	starts, ends := make(map[int]bool), make(map[int]bool)
	for o := range offsets {
		starts[o[0]], ends[o[1]] = true, true
	}
	if len(starts) != 64 || len(ends) != 64 || longest < 3 {
		t.Fatalf("random layouts: runs start at %d and end at %d bit offsets and span up to %d words, want 64, 64 and 3", len(starts), len(ends), longest)
	}
}

// checkCells checks p against a reference that does not use partitions:
// the points grouped by agent's local state, groups in order of first
// occurrence by dense ID, each listing its IDs in increasing order.
func checkCells(t *testing.T, label string, idx *Index, agent AgentID, p *Partition) {
	t.Helper()
	var want [][]int32
	group := make(map[LocalState]int)
	for id := 0; id < idx.NumPoints(); id++ {
		l := idx.PointAt(id).Local(agent)
		g, ok := group[l]
		if !ok {
			g = len(want)
			group[l] = g
			want = append(want, nil)
		}
		want[g] = append(want[g], int32(id))
	}
	if p.NumBlocks() != len(want) {
		t.Fatalf("%s agent %d: %d cells, want %d", label, agent, p.NumBlocks(), len(want))
	}
	for k, members := range want {
		if !slices.Equal(p.Members(k), members) {
			t.Fatalf("%s agent %d: cell %d has members %v, want %v", label, agent, k, p.Members(k), members)
		}
		for _, id := range members {
			if p.BlockOf(int(id)) != k {
				t.Fatalf("%s agent %d: BlockOf(%d) = %d, want %d", label, agent, id, p.BlockOf(int(id)), k)
			}
		}
	}
}

func TestCellPartition(t *testing.T) {
	idx := twoTreeSystem(t).Index()
	for _, agent := range []AgentID{0, 1} {
		checkCells(t, "twoTree", idx, agent, idx.Cells(agent, 1))
	}
}

func TestDenseSetAlgebra(t *testing.T) {
	sys := twoTreeSystem(t)
	idx := sys.Index()
	n := idx.NumPoints()

	a := idx.NewDense()
	b := idx.NewDense()
	for id := 0; id < n; id++ {
		if id%2 == 0 {
			a.add(id)
		}
		if id%3 == 0 {
			b.add(id)
		}
	}

	check := func(name string, got *DenseSet, want func(id int) bool) {
		t.Helper()
		for id := 0; id < n; id++ {
			if got.Contains(id) != want(id) {
				t.Errorf("%s: disagreement at %d", name, id)
			}
		}
	}
	check("union", a.Union(b, 1), func(id int) bool { return id%2 == 0 || id%3 == 0 })
	check("intersect", a.Intersect(b, 1), func(id int) bool { return id%6 == 0 })
	check("complement", a.Complement(1), func(id int) bool { return id%2 != 0 })

	// Allocating ops left their operands alone.
	check("a unchanged", a, func(id int) bool { return id%2 == 0 })
	check("b unchanged", b, func(id int) bool { return id%3 == 0 })

	if !a.Intersect(b, 1).Intersect(a.Complement(1), 1).IsEmpty() || !a.Intersect(a.Union(b, 1).Complement(1), 1).IsEmpty() {
		t.Error("Intersect, Union and Complement violate lattice laws")
	}
	if a.Intersect(b.Complement(1), 1).IsEmpty() {
		t.Error("a \\ b should be non-empty")
	}

	// Complement must not set tail bits past NumPoints: complementing twice
	// and unioning with the complement must reproduce a and the full set.
	if !a.Complement(1).Complement(1).Equal(a) {
		t.Error("double complement differs (tail bits leaked)")
	}
	full := a.Union(a.Complement(1), 1)
	if !full.Equal(idx.FullDense()) || full.Len() != n {
		t.Errorf("a ∪ ¬a has %d elements, want %d", full.Len(), n)
	}
}

// TestDenseSetReadOnlyAPI pins *DenseSet's exported methods to a written
// list of methods that only read the set or return a fresh one. Sets are
// memoized and shared once built, so no code outside this package may
// change one: exporting a writer (such as add) must fail here and be a
// visible edit of this list.
func TestDenseSetReadOnlyAPI(t *testing.T) {
	want := []string{
		"Bit", "Clone", "Complement", "Contains", "ContainsPoint", "Equal",
		"FirstN", "Index", "Intersect", "IsEmpty", "Iterate", "Key", "Len",
		"PointSet", "Sorted", "Union",
	}
	typ := reflect.TypeOf((*DenseSet)(nil))
	var got []string
	for i := range typ.NumMethod() {
		got = append(got, typ.Method(i).Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("*DenseSet exports %v, want the read-only API %v", got, want)
	}
}

func TestDenseSetIterateAndConvert(t *testing.T) {
	sys := twoTreeSystem(t)
	idx := sys.Index()

	ps := NewPointSet()
	for p := range sys.Points() {
		if p.Time == 0 {
			ps.Add(p)
		}
	}
	ds := idx.Select(1, nil, func(id int) bool { return idx.PointAt(id).Time == 0 })
	if ds.Len() != ps.Len() {
		t.Fatalf("Select lost points: %d vs %d", ds.Len(), ps.Len())
	}
	var ids []int
	ds.Iterate(func(id int) { ids = append(ids, id) })
	if len(ids) != ds.Len() {
		t.Fatalf("Iterate visited %d ids, want %d", len(ids), ds.Len())
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("Iterate not in increasing ID order")
		}
	}
	back := ds.PointSet()
	if !back.Equal(ps) {
		t.Fatal("PointSet round trip lost points")
	}
	for _, p := range ds.Sorted() {
		if !ps.Contains(p) {
			t.Fatalf("Sorted produced foreign point %v", p)
		}
	}
	if !ds.ContainsPoint(idx.PointAt(ids[0])) {
		t.Error("ContainsPoint false for a member")
	}
}

// TestIndexConcurrent exercises the lazy builders from many goroutines: all
// must observe the same index and partitions, and the partitions must be
// the cells. Run under -race.
func TestIndexConcurrent(t *testing.T) {
	sys := twoTreeSystem(t)
	var wg sync.WaitGroup
	indexes := make([]*Index, 16)
	cells := make([][3]*Partition, 16) // agent 1's cells, agent 2's, the pair's components
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			idx := sys.Index()
			indexes[g] = idx
			for _, agent := range []AgentID{0, 1} {
				c := idx.Cells(agent, 1+g%3)
				for k := 0; k < c.NumBlocks(); k++ {
					_ = len(c.Members(k))
				}
				cells[g][agent] = c
			}
			cells[g][2] = idx.CommonCells([]AgentID{1 - AgentID(g%2), AgentID(g % 2)}, 1+g%3, nil)
		}(g)
	}
	wg.Wait()
	for g := 1; g < 16; g++ {
		if indexes[g] != indexes[0] || cells[g] != cells[0] {
			t.Fatal("goroutines observed distinct indexes or partitions")
		}
	}
	for _, agent := range []AgentID{0, 1} {
		checkCells(t, "concurrent", indexes[0], agent, cells[0][agent])
	}
}
