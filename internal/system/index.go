package system

import (
	"sort"
	"sync"
)

// Index is a dense numbering of a system's points: every point is assigned
// an integer ID in [0, NumPoints), ordered by tree (in the system's tree
// order), then run, then time. Because the ordering nests runs inside trees
// and times inside runs, the points of one run occupy a contiguous ID range,
// so the temporal kernels (Next, Until) step along a run with ID
// arithmetic.
//
// An Index is immutable once built and safe for concurrent readers; it is
// the backing universe for DenseSet. Obtain a system's index with
// (*System).Index(), which builds it lazily exactly once, or with
// (*System).BuildIndex to spread the construction of a million-point index
// across goroutines.
type Index struct {
	sys    *System
	points []Point       // dense ID → point
	words  int           // len of the []uint64 backing a DenseSet
	pos    map[*Tree]int // tree → position in sys.trees

	// runStart[treePos][run] is the dense ID of (run, 0); the run's points
	// are the IDs runStart .. runStart+RunLen-1.
	runStart [][]int

	mu    sync.Mutex
	cells []*Partition // guarded by mu; per agent, built lazily
}

// Index returns the system's point index, building it on first use. The
// build is synchronized, so concurrent callers all observe the same
// fully-constructed index.
func (s *System) Index() *Index { return s.BuildIndex(1) }

// BuildIndex is Index with the point-table fill split across up to workers
// goroutines: the per-run ID offsets are laid out serially (one pass over
// the runs), then each worker materializes the Point records of a disjoint
// ID range, starting in the run that contains the range's first ID.
// Subsequent calls — with any worker count — return the same index; only
// the first builds.
func (s *System) BuildIndex(workers int) *Index {
	s.indexOnce.Do(func() {
		idx := &Index{
			sys: s,
			pos: make(map[*Tree]int, len(s.trees)),
		}
		// Serial prefix pass: one entry per run, not per point.
		total := 0
		idx.runStart = make([][]int, len(s.trees))
		for ti, t := range s.trees {
			idx.pos[t] = ti
			starts := make([]int, t.NumRuns())
			for r := 0; r < t.NumRuns(); r++ {
				starts[r] = total
				total += t.RunLen(r)
			}
			idx.runStart[ti] = starts
		}
		idx.points = make([]Point, total)
		ParFill(idx.points, workers, func(_ int, part []Point, lo int) {
			// Start in the run containing lo: the last run starting at or
			// before it, in the last tree starting at or before it.
			ti := sort.Search(len(s.trees), func(i int) bool { return idx.runStart[i][0] > lo }) - 1
			starts := idx.runStart[ti]
			r := sort.Search(len(starts), func(i int) bool { return starts[i] > lo }) - 1
			for j := 0; j < len(part); r++ {
				if r == len(starts) {
					ti, r = ti+1, 0
					starts = idx.runStart[ti]
				}
				t := s.trees[ti]
				for k := lo + j - starts[r]; k < t.RunLen(r) && j < len(part); k++ {
					part[j] = Point{Tree: t, Run: r, Time: k}
					j++
				}
			}
		})
		idx.words = (total + 63) / 64
		idx.cells = make([]*Partition, s.numAgents)
		s.index = idx
	})
	return s.index
}

// System returns the system the index numbers.
func (x *Index) System() *System { return x.sys }

// NumPoints returns the number of points (the size of the dense universe).
func (x *Index) NumPoints() int { return len(x.points) }

// Words returns the number of uint64 words backing a DenseSet over this
// index; pools use it to account for memoized extensions.
func (x *Index) Words() int { return x.words }

// PointAt returns the point with dense ID id.
func (x *Index) PointAt(id int) Point { return x.points[id] }

// ID returns the dense ID of p and whether p is a point of the indexed
// system. The lookup is pure arithmetic — no hashing — so it is cheap
// enough for inner loops.
func (x *Index) ID(p Point) (int, bool) {
	ti, ok := x.pos[p.Tree]
	if !ok || p.Run < 0 || p.Run >= len(x.runStart[ti]) {
		return 0, false
	}
	if p.Time < 0 || p.Time >= p.Tree.RunLen(p.Run) {
		return 0, false
	}
	return x.runStart[ti][p.Run] + p.Time, true
}

// eachRun visits every run of the system in dense-ID order, passing the
// run's tree, run number, first dense ID, and length. The IDs
// start..start+n-1 are exactly the run's points at times 0..n-1.
func (x *Index) eachRun(visit func(t *Tree, run, start, n int)) {
	for ti, t := range x.sys.trees {
		for r := 0; r < t.NumRuns(); r++ {
			visit(t, r, x.runStart[ti][r], t.RunLen(r))
		}
	}
}

// Next returns {c : the point after c on its run is in sub}, the dense
// extension of ○φ over sub = φ's extension. Runs are contiguous ID
// ranges, so the next point of ID k is k+1 unless k ends its run, and a
// run's last point has no successor.
func (x *Index) Next(sub *DenseSet) *DenseSet {
	out := x.NewDense()
	out.check(sub)
	x.eachRun(func(_ *Tree, _ int, start, n int) {
		for k := 0; k < n-1; k++ {
			if sub.Contains(start + k + 1) {
				out.add(start + k)
			}
		}
	})
	return out
}

// Until returns the dense extension of φ U ψ over finite runs, given l =
// φ's extension and r = ψ's: ψ holds at some point at or after c on c's
// run, and φ at every point from c up to it. Each run is one backward
// sweep over its ID range; until holds at k iff ψ at k, or φ at k and
// until at k+1, folded into a branch-free bit recurrence.
func (x *Index) Until(l, r *DenseSet) *DenseSet {
	out := x.NewDense()
	out.check(l)
	out.check(r)
	x.eachRun(func(_ *Tree, _ int, start, n int) {
		var h uint64
		for id := start + n - 1; id >= start; id-- {
			h = r.Bit(id) | l.Bit(id)&h
			out.orBit(id, h)
		}
	})
	return out
}

// Cells returns agent i's information cells, the points grouped by i's
// local state, built on first use by PartitionBy across up to workers
// goroutines and cached. Safe for concurrent use.
func (x *Index) Cells(i AgentID, workers int) *Partition {
	x.mu.Lock()
	defer x.mu.Unlock()
	if c := x.cells[i]; c != nil {
		return c
	}
	c := PartitionBy(x, workers, func(id int) LocalState { return x.points[id].Local(i) })
	x.cells[i] = c
	return c
}
