package system

import (
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"
)

// Index is a dense numbering of a system's points: every point is assigned
// an integer ID in [0, NumPoints), ordered by tree (in the system's tree
// order), then run, then time. Because the ordering nests runs inside trees
// and times inside runs, the points of one run occupy a contiguous ID range,
// so the temporal kernels (Next, Until) step along a run a word at a time,
// cutting carries at a mask of run ends.
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
	// runEnd has bit k set when ID k is the last point of its run, in
	// DenseSet layout.
	runEnd []uint64

	weightOnce sync.Once
	weight     []uint64 // dense ID → its run's integer weight, built lazily

	mu    sync.Mutex
	cells []*Partition // guarded by mu; per agent, built lazily

	commonMu sync.Mutex
	common   map[string]*Partition // guarded by commonMu; per group, built lazily
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
		idx.runEnd = make([]uint64, idx.words)
		for ti, starts := range idx.runStart {
			for r, start := range starts {
				end := start + s.trees[ti].RunLen(r) - 1
				idx.runEnd[end/64] |= 1 << (end % 64)
			}
		}
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
// index; the evaluator's set algebra shards only above a word threshold.
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

// Next returns {c : the point after c on its run is in sub}, the dense
// extension of ○φ over sub = φ's extension. Runs are contiguous ID
// ranges, so the next point of ID k is k+1 unless k ends its run: each
// word of the result is sub's bits shifted down by one, the next word's
// lowest bit carried into the top, with the run ends cleared.
func (x *Index) Next(sub *DenseSet) *DenseSet {
	out := x.NewDense()
	out.check(sub)
	last := len(out.bits) - 1
	for w := range out.bits {
		word := sub.bits[w] >> 1
		if w < last {
			word |= sub.bits[w+1] << 63
		}
		out.bits[w] = word &^ x.runEnd[w]
	}
	return out
}

// Until returns the dense extension of φ U ψ over finite runs, given l =
// φ's extension and r = ψ's: ψ holds at some point at or after c on c's
// run, and φ at every point from c up to it. Until holds at k iff ψ at k,
// or φ at k, k does not end its run, and until at k+1. That is a carry
// chain running from high IDs to low: ψ generates a carry and φ off the
// run ends propagates one. Bit-reversed, the chain runs upward, and one
// 64-bit addition resolves a whole word: adding the generate bits g into
// g | p leaves, at each bit, the carry out of the bit below it. Words are
// visited from the last down, the carry out of each entering the next.
func (x *Index) Until(l, r *DenseSet) *DenseSet {
	out := x.NewDense()
	out.check(l)
	out.check(r)
	var carry uint64
	for w := len(out.bits) - 1; w >= 0; w-- {
		g := bits.Reverse64(r.bits[w])
		p := bits.Reverse64(l.bits[w] &^ x.runEnd[w])
		a := g | p
		sum, cout := bits.Add64(a, g, carry)
		// sum^a^g is the carry into each bit; the carry out of bit b is
		// the carry into b+1, or cout for the top bit.
		out.bits[w] = bits.Reverse64((sum^a^g)>>1 | cout<<63)
		carry = cout
	}
	return out
}

// runWeights returns the integer weight of every point's run
// (Tree.RunWeights) by dense ID, 0 in a tree without integer weights,
// built on first use: one table per index, which every agent's
// probability sums read.
func (x *Index) runWeights() []uint64 {
	x.weightOnce.Do(func() {
		x.weight = make([]uint64, len(x.points))
		for ti, t := range x.sys.trees {
			weights, _, ok := t.RunWeights()
			if !ok {
				continue
			}
			for r, start := range x.runStart[ti] {
				w := x.weight[start : start+t.RunLen(r)]
				for k := range w {
					w[k] = weights[r]
				}
			}
		}
	})
	return x.weight
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

// CommonCells returns the group's common-knowledge partition: the connected
// components of the union of the group's indistinguishability relations,
// which is the finest partition that every member's cells refine. Every
// K_i is an equivalence, so C_G φ holds at c exactly when φ holds on all
// of c's component, and C_G's extension is KnowExtension over this
// partition. The group is a set: order and repeats do not matter, and it
// must not be empty. A one-agent group's partition is its cells.
//
// The build is union-find over the cells of the agent with the fewest,
// merging the cells that each further agent's cells meet; the components
// are then numbered in order of first occurrence by dense ID through
// arrays, with no map. When no two cells merge, the partition is those
// cells, shared. The result is cached per group on the index, as Cells
// is, and safe for concurrent use. stop, when non-nil, is polled every
// 4096 IDs; returning true abandons the build, which returns nil and
// caches nothing.
func (x *Index) CommonCells(group []AgentID, workers int, stop func() bool) *Partition {
	agents := slices.Clone(group)
	slices.Sort(agents)
	agents = slices.Compact(agents)
	if len(agents) == 1 {
		return x.Cells(agents[0], workers)
	}
	key := make([]byte, 0, 4*len(agents))
	for _, a := range agents {
		key = strconv.AppendInt(append(key, ','), int64(a), 10)
	}
	x.commonMu.Lock()
	c, ok := x.common[string(key)]
	x.commonMu.Unlock()
	if ok {
		return c
	}
	// Build without the lock, which stop must not run under; of two
	// concurrent builds of one group, the first stored is kept.
	if c = x.buildCommon(agents, workers, stop); c == nil {
		return nil
	}
	x.commonMu.Lock()
	defer x.commonMu.Unlock()
	if prev, ok := x.common[string(key)]; ok {
		return prev
	}
	if x.common == nil {
		x.common = make(map[string]*Partition)
	}
	x.common[string(key)] = c
	return c
}

// buildCommon is CommonCells' build for two or more distinct agents.
func (x *Index) buildCommon(agents []AgentID, workers int, stop func() bool) *Partition {
	cells := make([]*Partition, len(agents))
	base := 0
	for k, a := range agents {
		cells[k] = x.Cells(a, workers)
		if cells[k].NumBlocks() < cells[base].NumBlocks() {
			base = k
		}
	}
	first := cells[base]
	// parent is a union-find forest over first's cells, halving paths.
	parent := make([]int32, first.NumBlocks())
	for k := range parent {
		parent[k] = int32(k)
	}
	find := func(k int32) int32 {
		for parent[k] != k {
			parent[k] = parent[parent[k]]
			k = parent[k]
		}
		return k
	}
	merged := false
	for k, c := range cells {
		if k == base {
			continue
		}
		// rep[b] is the set, by a root seen last, of the first-cells that
		// c's cell b meets; every other first-cell b meets joins it.
		rep := make([]int32, c.NumBlocks())
		for b := range rep {
			rep[b] = -1
		}
		for id, b := range c.blockOf {
			if stop != nil && id&4095 == 0 && stop() {
				return nil
			}
			a := first.blockOf[id]
			if r := rep[b]; r < 0 {
				rep[b] = a
			} else if r != a {
				ra, rb := find(a), find(r)
				if ra != rb {
					parent[ra] = rb
					merged = true
				}
				rep[b] = rb
			}
		}
	}
	if !merged {
		return first
	}
	// first numbers its cells in order of first occurrence, so numbering
	// each set at its lowest cell numbers the components the same way.
	comp := make([]int32, len(parent))
	num := make([]int32, len(parent))
	for k := range num {
		num[k] = -1
	}
	next := int32(0)
	for k := range comp {
		r := find(int32(k))
		if num[r] < 0 {
			num[r] = next
			next++
		}
		comp[k] = num[r]
	}
	blockOf := make([]int32, len(first.blockOf))
	ParFill(blockOf, workers, func(_ int, part []int32, lo int) {
		for j := range part {
			if stop != nil && j&4095 == 0 && j > 0 && stop() {
				return
			}
			part[j] = comp[first.blockOf[lo+j]]
		}
	})
	if stop != nil && stop() {
		return nil
	}
	return newPartition(x, int(next), blockOf)
}
