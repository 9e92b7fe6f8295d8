package system

import "sync"

// Index is a dense numbering of a system's points: every point is assigned
// an integer ID in [0, NumPoints), ordered by tree (in the system's tree
// order), then run, then time. Because the ordering nests runs inside trees
// and times inside runs, the points of one run occupy a contiguous ID range,
// so temporal operators can step along a run with ID arithmetic.
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
	cells []*CellPartition // guarded by mu; per agent, built lazily
}

// Index returns the system's point index, building it on first use. The
// build is synchronized, so concurrent callers all observe the same
// fully-constructed index.
func (s *System) Index() *Index { return s.BuildIndex(1) }

// BuildIndex is Index with the point-table fill split across up to workers
// goroutines: the per-run ID offsets are laid out serially (one pass over
// the runs), then each worker materializes the Point records of a disjoint
// run range. Subsequent calls — with any worker count — return the same
// index; only the first builds.
func (s *System) BuildIndex(workers int) *Index {
	s.indexOnce.Do(func() {
		idx := &Index{
			sys: s,
			pos: make(map[*Tree]int, len(s.trees)),
		}
		// Serial prefix pass: one entry per run, not per point.
		total := 0
		idx.runStart = make([][]int, len(s.trees))
		type runRef struct{ tree, run int }
		var runs []runRef
		for ti, t := range s.trees {
			idx.pos[t] = ti
			starts := make([]int, t.NumRuns())
			for r := 0; r < t.NumRuns(); r++ {
				starts[r] = total
				total += t.RunLen(r)
				runs = append(runs, runRef{tree: ti, run: r})
			}
			idx.runStart[ti] = starts
		}
		idx.points = make([]Point, total)
		// Parallel fill: runs occupy disjoint ID ranges, so shards over a
		// run partition write disjoint slices of points.
		ParRange(len(runs), 1, workers, func(_, lo, hi int) {
			for ri := lo; ri < hi; ri++ {
				t := s.trees[runs[ri].tree]
				r := runs[ri].run
				start := idx.runStart[runs[ri].tree][r]
				for k, n := 0, t.RunLen(r); k < n; k++ {
					//kpavet:ignore shardsafe run ri owns IDs [start, start+RunLen): runStart assigns each run a disjoint range, so shards over the run partition write disjoint slices
					idx.points[start+k] = Point{Tree: t, Run: r, Time: k}
				}
			}
		})
		idx.words = (total + 63) / 64
		idx.cells = make([]*CellPartition, s.numAgents)
		s.index = idx
		s.indexBuilt.Store(true)
	})
	return s.index
}

// IndexIfBuilt returns the system's point index if some caller has
// already built it, and nil otherwise — a peek that never triggers the
// build. Snapshot writers use it to persist derived state only for
// systems a workload actually touched.
func (s *System) IndexIfBuilt() *Index {
	if !s.indexBuilt.Load() {
		return nil
	}
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

// EachRun visits every run of the system in dense-ID order, passing the
// run's tree, run number, first dense ID, and length. The IDs
// start..start+n-1 are exactly the run's points at times 0..n-1.
func (x *Index) EachRun(visit func(t *Tree, run, start, n int)) {
	for ti, t := range x.sys.trees {
		for r := 0; r < t.NumRuns(); r++ {
			visit(t, r, x.runStart[ti][r], t.RunLen(r))
		}
	}
}

// CellPartition is the partition of a system's points into one agent's
// information cells (the equivalence classes of ∼_i): Masks holds one
// DenseSet per cell, and CellOf maps each dense point ID to its cell.
// Knowledge of agent i is constant on each cell, which is what lets
// K_i-extension computation run cell-by-cell instead of point-by-point.
type CellPartition struct {
	masks  []*DenseSet
	cellOf []int32
	idx    *Index
}

// NumCells returns the number of information cells.
func (c *CellPartition) NumCells() int { return len(c.masks) }

// Mask returns cell k as a DenseSet. The returned set is shared and must
// not be modified.
func (c *CellPartition) Mask(k int) *DenseSet { return c.masks[k] }

// CellOf returns the cell index of the point with dense ID id.
func (c *CellPartition) CellOf(id int) int { return int(c.cellOf[id]) }

// KnowExtension computes {c : cell(c) ⊆ ext}, the dense extension of K_i —
// the kernel behind the evaluator's knowledge operator. It runs in two
// sharded phases over up to workers goroutines: first one subset test per
// cell (reads only), then one pass over the dense IDs writing the result
// bits of passing cells. ID shards are 64-aligned, so distinct shards write
// distinct backing words of the shared result — the sharded-mutation
// pattern the denseown analyzer's fixtures pin down.
//
// stop, when non-nil, is polled between strides of both phases; returning
// true abandons the sweep early (the partial result must be discarded).
// With workers ≤ 1 both phases run on the calling goroutine.
func (c *CellPartition) KnowExtension(ext *DenseSet, workers int, stop func() bool) *DenseSet {
	good := make([]bool, len(c.masks))
	ParRange(len(c.masks), 1, workers, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			if stop != nil && k&15 == 0 && stop() {
				return
			}
			good[k] = c.masks[k].SubsetOf(ext)
		}
	})
	out := c.idx.NewDense()
	if stop != nil && stop() {
		return out
	}
	ParRange(len(c.cellOf), 64, workers, func(_, lo, hi int) {
		for id := lo; id < hi; id++ {
			if stop != nil && id&4095 == 0 && stop() {
				return
			}
			if good[c.cellOf[id]] {
				// Direct word write: the 64-aligned shard owns this word.
				out.bits[id/64] |= 1 << (id % 64)
			}
		}
	})
	return out
}

// Cells returns agent i's information-cell partition, building and caching
// it on first use. Safe for concurrent use; the returned partition is
// immutable.
func (x *Index) Cells(i AgentID) *CellPartition { return x.CellsPar(i, 1) }

// CellsPar is Cells with the construction sharded across up to workers
// goroutines. The result is identical to the serial build — cells are
// numbered in order of first occurrence by dense ID — because the shards'
// local first-occurrence numberings are merged in shard order before the
// final parallel mask fill. Subsequent calls return the cached partition.
func (x *Index) CellsPar(i AgentID, workers int) *CellPartition {
	x.mu.Lock()
	defer x.mu.Unlock()
	if c := x.cells[i]; c != nil {
		return c
	}
	n := len(x.points)
	c := &CellPartition{cellOf: make([]int32, n), idx: x}

	// Phase 1: each shard numbers the locals of its ID range in first-
	// occurrence order, privately.
	type shardCells struct {
		byLocal map[LocalState]int32
		locals  []LocalState // shard-local number → local state
	}
	var perShard []shardCells
	var mu sync.Mutex
	ParRange(n, 64, workers, func(shard, lo, hi int) {
		sc := shardCells{byLocal: make(map[LocalState]int32)}
		for id := lo; id < hi; id++ {
			l := x.points[id].Local(i)
			k, ok := sc.byLocal[l]
			if !ok {
				k = int32(len(sc.locals))
				sc.byLocal[l] = k
				sc.locals = append(sc.locals, l)
			}
			c.cellOf[id] = k // shard-local numbering, remapped in phase 3
		}
		mu.Lock()
		for len(perShard) <= shard {
			perShard = append(perShard, shardCells{})
		}
		perShard[shard] = sc
		mu.Unlock()
	})

	// Phase 2 (serial): merge the shard numberings in shard order, which
	// reproduces the global first-occurrence order, then remap each shard's
	// range. remap[shard][localNum] is the global cell number.
	global := make(map[LocalState]int32)
	var order []LocalState
	remap := make([][]int32, len(perShard))
	for s, sc := range perShard {
		remap[s] = make([]int32, len(sc.locals))
		for k, l := range sc.locals {
			g, ok := global[l]
			if !ok {
				g = int32(len(order))
				global[l] = g
				order = append(order, l)
			}
			remap[s][k] = g
		}
	}
	c.masks = make([]*DenseSet, len(order))
	for k := range c.masks {
		c.masks[k] = x.NewDense()
	}

	// Phase 3: remap the cell table and fill the masks, sharded over the
	// same 64-aligned ranges. ParRange reproduces the phase-1 shard
	// boundaries for equal n/align/workers, so each ID's shard-local number
	// is remapped through its own shard's table; the mask writes are direct
	// word updates on 64-aligned ranges, hence race-free.
	ParRange(n, 64, workers, func(shard, lo, hi int) {
		tab := remap[shard]
		for id := lo; id < hi; id++ {
			g := tab[c.cellOf[id]]
			c.cellOf[id] = g
			c.masks[g].bits[id/64] |= 1 << (id % 64)
		}
	})
	x.cells[i] = c
	return c
}
