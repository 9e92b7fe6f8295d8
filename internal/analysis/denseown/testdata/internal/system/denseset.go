// Package system is the fixture's miniature dense-set engine. The
// analyzer discovers the in-place methods from these bodies (they write
// through the receiver) instead of matching names, so the fixture keeps
// the same shape as the real internal/system.
package system

// Index scopes dense sets to a fixed universe of n points.
type Index struct {
	n int
}

// NewIndex returns an index over n points.
func NewIndex(n int) *Index { return &Index{n: n} }

// NewDense returns a fresh empty set; the caller owns it exclusively.
func (x *Index) NewDense() *DenseSet {
	return &DenseSet{idx: x, bits: make([]uint64, (x.n+63)/64)}
}

// FullDense returns a fresh set containing every point.
func (x *Index) FullDense() *DenseSet {
	s := x.NewDense()
	for i := 0; i < x.n; i++ {
		s.Add(i)
	}
	return s
}

// EachRun calls visit for every point id, in order. The callback runs
// to completion before EachRun returns.
func (x *Index) EachRun(visit func(id int)) {
	for i := 0; i < x.n; i++ {
		visit(i)
	}
}

// ParFill hands fill each shard's part of dst; every fill call completes
// before ParFill returns, exactly like the real fan-out, so literal
// callbacks stay transparent.
func ParFill[T any](dst []T, workers int, fill func(shard int, part []T, lo int)) {
	if len(dst) > 0 {
		fill(0, dst, 0)
	}
}

// ParMap is ParFill for shards that return a value, in shard order.
func ParMap[T, R any](dst []T, workers int, f func(shard int, part []T, lo int) R) []R {
	if len(dst) == 0 {
		return nil
	}
	return []R{f(0, dst, 0)}
}

// DenseSet is a bitset over an index's points.
type DenseSet struct {
	idx  *Index
	bits []uint64
}

// Add puts id into the set in place.
func (s *DenseSet) Add(id int) { s.bits[id/64] |= 1 << (id % 64) }

// Remove deletes id from the set in place.
func (s *DenseSet) Remove(id int) { s.bits[id/64] &^= 1 << (id % 64) }

// Contains reports whether id is in the set.
func (s *DenseSet) Contains(id int) bool { return s.bits[id/64]&(1<<(id%64)) != 0 }

// Len counts the members.
func (s *DenseSet) Len() int {
	n := 0
	for i := 0; i < len(s.bits)*64; i++ {
		if s.Contains(i) {
			n++
		}
	}
	return n
}

// Clone returns a fresh copy the caller owns.
func (s *DenseSet) Clone() *DenseSet {
	c := &DenseSet{idx: s.idx, bits: make([]uint64, len(s.bits))}
	copy(c.bits, s.bits)
	return c
}

// Union returns a fresh s ∪ t.
func (s *DenseSet) Union(t *DenseSet) *DenseSet {
	u := s.Clone()
	u.UnionWith(t)
	return u
}

// UnionWith folds t into s in place.
func (s *DenseSet) UnionWith(t *DenseSet) {
	for i := range s.bits {
		s.bits[i] |= t.bits[i]
	}
}

// IntersectWith keeps only members shared with t, in place.
func (s *DenseSet) IntersectWith(t *DenseSet) {
	for i := range s.bits {
		s.bits[i] &= t.bits[i]
	}
}

// Iterate calls visit for each member in ascending order.
func (s *DenseSet) Iterate(visit func(id int)) {
	for i := 0; i < len(s.bits)*64; i++ {
		if s.Contains(i) {
			visit(i)
		}
	}
}
