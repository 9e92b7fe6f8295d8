package system

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kpa/internal/rat"
)

// groups returns every non-empty subset of the system's agents.
func groups(sys *System) [][]AgentID {
	var out [][]AgentID
	for mask := 1; mask < 1<<sys.NumAgents(); mask++ {
		var g []AgentID
		for i := 0; i < sys.NumAgents(); i++ {
			if mask&(1<<i) != 0 {
				g = append(g, AgentID(i))
			}
		}
		out = append(out, g)
	}
	return out
}

// componentsByBFS is CommonCells' reference: the components of the union
// of the group's indistinguishability relations found by breadth-first
// search from each point in ID order, listed in order of first occurrence
// with their IDs ascending.
func componentsByBFS(idx *Index, group []AgentID) [][]int32 {
	n := idx.NumPoints()
	alike := make(map[string][]int) // (agent, local state) → IDs
	key := func(i AgentID, id int) string { return fmt.Sprintf("%d/%s", i, idx.PointAt(id).Local(i)) }
	for id := 0; id < n; id++ {
		for _, i := range group {
			alike[key(i, id)] = append(alike[key(i, id)], id)
		}
	}
	comp := make([]int, n)
	for id := range comp {
		comp[id] = -1
	}
	var out [][]int32
	for id := 0; id < n; id++ {
		if comp[id] >= 0 {
			continue
		}
		c := len(out)
		out = append(out, nil)
		comp[id] = c
		for queue := []int{id}; len(queue) > 0; queue = queue[1:] {
			for _, i := range group {
				for _, d := range alike[key(i, queue[0])] {
					if comp[d] < 0 {
						comp[d] = c
						queue = append(queue, d)
					}
				}
			}
		}
	}
	for id, c := range comp {
		out[c] = append(out[c], int32(id))
	}
	return out
}

// TestCommonCellsComponents checks CommonCells on every non-empty group of
// several systems against components found by breadth-first search: the
// same blocks, numbered in order of first occurrence, with ascending
// members. It also checks the cache: a permuted group with repeats gets the
// same partition, a one-agent group gets its cells, and a group whose
// cells never merge shares its base agent's cells.
func TestCommonCellsComponents(t *testing.T) {
	systems := map[string]*System{
		"broom":   broomSystem(t, 3, 40, 5, 4),
		"twoTree": twoTreeSystem(t),
		"chain":   chainSystem(t, 37),
	}
	for name, sys := range systems {
		idx := sys.Index()
		for _, g := range groups(sys) {
			want := componentsByBFS(idx, g)
			// The cached partition, and for a group of several agents an
			// uncached build on three workers.
			parts := []*Partition{idx.CommonCells(g, 1, nil)}
			if len(g) > 1 {
				parts = append(parts, idx.buildCommon(g, 3, nil))
			}
			for _, p := range parts {
				if p.NumBlocks() != len(want) {
					t.Fatalf("%s group %v: %d components, want %d", name, g, p.NumBlocks(), len(want))
				}
				for k, members := range want {
					if !slices.Equal(p.Members(k), members) {
						t.Fatalf("%s group %v: component %d has members %v, want %v", name, g, k, p.Members(k), members)
					}
					for _, id := range members {
						if p.BlockOf(int(id)) != k {
							t.Fatalf("%s group %v: BlockOf(%d) = %d, want %d", name, g, id, p.BlockOf(int(id)), k)
						}
					}
				}
			}
			again := append(slices.Clone(g), g...)
			slices.Reverse(again)
			if idx.CommonCells(again, 1, nil) != idx.CommonCells(g, 1, nil) {
				t.Fatalf("%s group %v: a permuted group with repeats built a second partition", name, g)
			}
			if len(g) == 1 && idx.CommonCells(g, 1, nil) != idx.Cells(g[0], 1) {
				t.Fatalf("%s group %v: a one-agent group's partition is not its cells", name, g)
			}
		}
	}
	// In the two-tree system agent 1's cells refine agent 2's, so no two of
	// agent 2's cells merge and the pair's partition is agent 2's cells.
	idx := systems["twoTree"].Index()
	if idx.CommonCells([]AgentID{0, 1}, 1, nil) != idx.Cells(1, 1) {
		t.Fatal("two-tree pair: the components are agent 2's cells, but the partition is not shared")
	}
}

// TestCommonCellsCancelNotCached checks that a build the stop function
// abandons returns nil and caches nothing, at its first poll and at a later
// one, and that a completed build is cached and then returned without
// polling.
func TestCommonCellsCancelNotCached(t *testing.T) {
	idx := chainSystem(t, 5000).Index()
	if idx.NumPoints() <= 2*4096 {
		t.Fatalf("%d points: the fixture must span several polling strides", idx.NumPoints())
	}
	g := []AgentID{0, 1}
	for _, fireAt := range []int{1, 2} {
		calls := 0
		stop := func() bool { calls++; return calls >= fireAt }
		if p := idx.CommonCells(g, 1, stop); p != nil {
			t.Fatalf("stop firing at poll %d: got a partition, want nil", fireAt)
		}
		if calls != fireAt {
			t.Fatalf("stop firing at poll %d: polled %d times", fireAt, calls)
		}
		if len(idx.common) != 0 {
			t.Fatalf("stop firing at poll %d: the abandoned build was cached", fireAt)
		}
	}
	p := idx.CommonCells(g, 1, nil)
	if p == nil || p.NumBlocks() != 2 {
		t.Fatalf("chain components: got %v, want 2 (time 0 and time 1)", p)
	}
	if got := idx.CommonCells(g, 1, func() bool { return true }); got != p {
		t.Fatal("a cached partition was not returned to a caller whose stop fires")
	}
}

// chainSystem is the common-knowledge chain: one tree of runs equiprobable
// two-point runs; at time 1 agent 1 sees ⌊r/2⌋ and agent 2 sees ⌊(r+1)/2⌋,
// so the time-1 points form one chain of cells linking every run.
func chainSystem(t testing.TB, runs int) *System {
	t.Helper()
	tb := NewTree("chain", gs("root", "a:0", "b:0"))
	for r := 0; r < runs; r++ {
		tb.Child(0, rat.New(1, int64(runs)), gs(fmt.Sprintf("r%d", r), fmt.Sprintf("a:1:%d", r/2), fmt.Sprintf("b:1:%d", (r+1)/2)))
	}
	sys, err := New(2, tb.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestEveryoneKernel checks Index.Everyone against the meet of each
// agent's KnowExtension, for every group of a three-agent broom, sets from
// nearly empty to full and 1 to 8 workers, so that further agents' failing
// cells are both walked out of the set and swept out of it.
func TestEveryoneKernel(t *testing.T) {
	sys := broomSystem(t, 3, 60, 6, 4)
	idx := sys.Index()
	n := idx.NumPoints()
	rng := rand.New(rand.NewSource(3))
	for _, density := range []int{1, 2, 20, 1 << 30} {
		exts := make([]*DenseSet, 3)
		for k := range exts {
			exts[k] = idx.Select(1, nil, func(int) bool { return density == 1<<30 || rng.Intn(density) != 0 })
		}
		for _, g := range groups(sys) {
			var want *DenseSet
			for k, i := range g {
				known := idx.Cells(i, 1).KnowExtension(exts[k], 1, nil)
				if want == nil {
					want = known
				} else {
					want = want.Intersect(known, 1)
				}
			}
			for _, workers := range []int{1, 2, 3, 8} {
				got := idx.Everyone(g, exts[:len(g)], workers, nil)
				if !got.Equal(want) {
					t.Fatalf("density %d group %v workers %d: Everyone differs from the meet of K_i", density, g, workers)
				}
				if got.bits[len(got.bits)-1]>>(n%64) != 0 {
					t.Fatalf("density %d group %v workers %d: bits set past NumPoints", density, g, workers)
				}
			}
		}
	}
}

// weightedBroom is a broom whose run r has probability (1 + r mod 5) over
// the total, so its run weights differ, and whose agent sees the time and
// (run mod buckets).
func weightedBroom(t testing.TB, runs, runLen, buckets int) *System {
	t.Helper()
	total := 0
	for r := 0; r < runs; r++ {
		total += 1 + r%5
	}
	tb := NewTree("weighted", gs("root", "a:root"))
	for r := 0; r < runs; r++ {
		id := tb.Child(0, rat.New(int64(1+r%5), int64(total)), gs(fmt.Sprintf("r%d.1", r), fmt.Sprintf("a:1:%d", r%buckets)))
		for k := 2; k < runLen; k++ {
			id = tb.Child(id, rat.One, gs(fmt.Sprintf("r%d.%d", r, k), fmt.Sprintf("a:%d:%d", k, r%buckets)))
		}
	}
	sys, err := New(1, tb.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestWeightInKernel checks Partition.WeightIn against a per-member sum of
// run weights, for sets one point below, at and one point above half the
// universe (so both the set's side and its complement's are summed), and
// for 1 to 8 workers. RunWeightSums must refuse cells without a clock,
// which meet a run more than once, and a pass that stop abandons.
func TestWeightInKernel(t *testing.T) {
	sys := weightedBroom(t, 700, 7, 8)
	idx := sys.Index()
	n := idx.NumPoints()
	weights, _, ok := sys.Trees()[0].RunWeights()
	if !ok {
		t.Fatal("weighted broom has no integer run weights")
	}
	cells := idx.Cells(0, 1)
	base := cells.RunWeightSums(nil)
	if base == nil {
		t.Fatal("cells with a clock: RunWeightSums found a run meeting a cell twice")
	}
	rng := rand.New(rand.NewSource(9))
	for _, size := range []int{0, 1, n/2 - 1, n / 2, n/2 + 1, n - 1, n} {
		chosen := rng.Perm(n)[:size]
		ext := idx.NewDense()
		for _, id := range chosen {
			ext.add(id)
		}
		want := make([]uint64, cells.NumBlocks())
		full := make([]uint64, cells.NumBlocks())
		for id := 0; id < n; id++ {
			w := weights[idx.PointAt(id).Run]
			full[cells.BlockOf(id)] += w
			if ext.Contains(id) {
				want[cells.BlockOf(id)] += w
			}
		}
		if !slices.Equal(base, full) {
			t.Fatal("RunWeightSums differs from the per-member sum")
		}
		for _, workers := range []int{1, 2, 3, 8} {
			if got := cells.WeightIn(ext, base, workers, nil); !slices.Equal(got, want) {
				t.Fatalf("%d of %d points, workers %d: WeightIn = %v, want %v", size, n, workers, got, want)
			}
		}
	}
	// Without a clock, one local state spans a whole run.
	blind := PartitionBy(idx, 1, func(id int) int { return idx.PointAt(id).Run % 8 })
	if blind.RunWeightSums(nil) != nil {
		t.Fatal("cells without a clock: RunWeightSums summed runs that meet a cell twice")
	}
	if n <= 4096 {
		t.Fatalf("%d points: the fixture must span a polling stride", n)
	}
	if cells.RunWeightSums(func() bool { return true }) != nil {
		t.Fatal("RunWeightSums returned sums from a pass its stop abandoned")
	}
}
