package system

import "math/bits"

// DenseSet is a set of points of one indexed system, backed by a []uint64
// bitset over the system's dense point IDs (see Index). All set algebra is
// O(words) word-wise arithmetic, the same style as RunSet; a few thousand
// points fit in a few dozen words, so unions, intersections and equality
// checks inside model-checking fixpoints cost nanoseconds instead of
// rebuilding hash maps.
//
// Outside this package a DenseSet is read-only: every exported operation
// either reads the set or returns a fresh one (Union, Intersect,
// Complement, Clone, and the Index kernels that build sets), so a set
// can be memoized and shared by every later reader once it is built. Only
// this package's kernels write a set, and only one they are building,
// before returning it (the one writer method, add, is unexported).
//
// Mixing sets from different indexes is a programming error; operations
// panic on a universe mismatch rather than computing garbage.
type DenseSet struct {
	idx  *Index
	bits []uint64
}

// NewDense returns an empty set over the index's points.
func (x *Index) NewDense() *DenseSet {
	return &DenseSet{idx: x, bits: make([]uint64, x.words)}
}

// FullDense returns the set of all points of the index.
func (x *Index) FullDense() *DenseSet {
	s := x.NewDense()
	for i := range s.bits {
		s.bits[i] = ^uint64(0)
	}
	s.clearTail()
	return s
}

// Select returns {id : keep(id)}, the set of the points keep accepts. The
// scan shards the result's words across up to workers goroutines, so keep
// must be safe for concurrent calls. stop, when non-nil, is polled every
// 4096 IDs; returning true abandons the scan (the partial result must be
// discarded).
func (x *Index) Select(workers int, stop func() bool, keep func(id int) bool) *DenseSet {
	s := x.NewDense()
	n := len(x.points)
	ParFill(s.bits, workers, func(_ int, part []uint64, lo int) {
		for j := range part {
			if stop != nil && (lo+j)&63 == 0 && j > 0 && stop() {
				return
			}
			id := (lo + j) * 64
			var word uint64
			for k := range min(64, n-id) {
				if keep(id + k) {
					word |= 1 << k
				}
			}
			part[j] = word
		}
	})
	return s
}

// clearTail zeroes the bits beyond the universe in the last word.
func (s *DenseSet) clearTail() {
	if rem := s.idx.NumPoints() % 64; rem != 0 && len(s.bits) > 0 {
		s.bits[len(s.bits)-1] &= (1 << rem) - 1
	}
}

func (s *DenseSet) check(t *DenseSet) {
	if s.idx != t.idx {
		panic("system: DenseSet operands built over different indexes")
	}
}

// Index returns the index the set ranges over.
func (s *DenseSet) Index() *Index { return s.idx }

// add inserts the point with dense ID id.
func (s *DenseSet) add(id int) { s.bits[id/64] |= 1 << (id % 64) }

// Contains reports whether the point with dense ID id is in the set.
func (s *DenseSet) Contains(id int) bool { return s.bits[id/64]&(1<<(id%64)) != 0 }

// Bit returns 1 when the point with dense ID id is in the set and 0
// otherwise, for kernels that fold membership into arithmetic instead of
// branching on it.
func (s *DenseSet) Bit(id int) uint64 { return s.bits[uint(id)/64] >> (uint(id) % 64) & 1 }

// ContainsPoint reports whether p is in the set; foreign points are never
// members.
func (s *DenseSet) ContainsPoint(p Point) bool {
	id, ok := s.idx.ID(p)
	return ok && s.Contains(id)
}

// Len returns the number of points in the set (its population count).
func (s *DenseSet) Len() int {
	c := 0
	for _, w := range s.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether the set is empty.
func (s *DenseSet) IsEmpty() bool {
	for _, w := range s.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s *DenseSet) Clone() *DenseSet {
	c := &DenseSet{idx: s.idx, bits: make([]uint64, len(s.bits))}
	copy(c.bits, s.bits)
	return c
}

// Union returns s ∪ t as a fresh set. The word sweep is split across up
// to workers goroutines (see ParFill); the caller decides whether the set
// is large enough to be worth sharding (see logic.Engine).
func (s *DenseSet) Union(t *DenseSet, workers int) *DenseSet {
	s.check(t)
	u := &DenseSet{idx: s.idx, bits: make([]uint64, len(s.bits))}
	ParFill(u.bits, workers, func(_ int, part []uint64, lo int) {
		for j := range part {
			part[j] = s.bits[lo+j] | t.bits[lo+j]
		}
	})
	return u
}

// Intersect returns s ∩ t as a fresh set, sharded like Union.
func (s *DenseSet) Intersect(t *DenseSet, workers int) *DenseSet {
	s.check(t)
	u := &DenseSet{idx: s.idx, bits: make([]uint64, len(s.bits))}
	ParFill(u.bits, workers, func(_ int, part []uint64, lo int) {
		for j := range part {
			part[j] = s.bits[lo+j] & t.bits[lo+j]
		}
	})
	return u
}

// Complement returns the complement of s within the index's universe as
// a fresh set, sharded like Union.
func (s *DenseSet) Complement(workers int) *DenseSet {
	u := &DenseSet{idx: s.idx, bits: make([]uint64, len(s.bits))}
	ParFill(u.bits, workers, func(_ int, part []uint64, lo int) {
		for j := range part {
			part[j] = ^s.bits[lo+j]
		}
	})
	u.clearTail()
	return u
}

// Equal reports whether s and t contain exactly the same points.
func (s *DenseSet) Equal(t *DenseSet) bool {
	if s.idx != t.idx {
		return false
	}
	for i := range s.bits {
		if s.bits[i] != t.bits[i] {
			return false
		}
	}
	return true
}

// Iterate visits the dense IDs of the set's points in increasing order,
// walking set words with trailing-zero counts so sparse sets cost only
// their population.
func (s *DenseSet) Iterate(visit func(id int)) {
	for wi, w := range s.bits {
		for w != 0 {
			visit(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Key returns the set's bit pattern as a string, a cheap canonical map key
// for cycle detection over set sequences.
func (s *DenseSet) Key() string {
	b := make([]byte, 0, len(s.bits)*8)
	for _, w := range s.bits {
		for sh := 0; sh < 64; sh += 8 {
			b = append(b, byte(w>>sh))
		}
	}
	return string(b)
}

// PointSet converts the set to the map-based PointSet representation used
// at package boundaries.
func (s *DenseSet) PointSet() PointSet {
	out := make(PointSet, s.Len())
	s.Iterate(func(id int) { out.Add(s.idx.points[id]) })
	return out
}

// FirstN returns the first n points of the set in dense-ID order (fewer if
// the set is smaller). Unlike Sorted it stops after n hits, so reporting a
// bounded sample of a million-point set costs O(words + n), not O(|set|).
func (s *DenseSet) FirstN(n int) []Point {
	if n <= 0 {
		return nil
	}
	out := make([]Point, 0, n)
	for wi, w := range s.bits {
		for w != 0 {
			out = append(out, s.idx.points[wi*64+bits.TrailingZeros64(w)])
			if len(out) == n {
				return out
			}
			w &= w - 1
		}
	}
	return out
}

// Sorted returns the set's points in dense-ID order (tree, run, time), a
// deterministic order obtained without sorting.
func (s *DenseSet) Sorted() []Point {
	out := make([]Point, 0, s.Len())
	s.Iterate(func(id int) { out = append(out, s.idx.points[id]) })
	return out
}
