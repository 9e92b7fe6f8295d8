// Package system is the fixture's miniature parallel engine. shardsafe
// mines the WritesReceiver facts from these method bodies — add, remove
// and unionWith write through the receiver, Contains does not — so the
// fixture exercises the same fact pipeline as the real internal/system.
// The writers are unexported, as in the real package, so the fan-out
// bodies that could misuse them live here too.
package system

import "sync"

// ParFill splits dst into at most workers contiguous parts and runs
// fill(shard, part, lo) on each, concurrently.
func ParFill[T any](dst []T, workers int, fill func(shard int, part []T, lo int)) {
	if len(dst) == 0 {
		return
	}
	chunk := (len(dst) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(dst); lo += chunk {
		hi := min(lo+chunk, len(dst))
		wg.Add(1)
		go func(shard, lo, hi int) {
			defer wg.Done()
			fill(shard, dst[lo:hi:hi], lo)
		}(lo/chunk, lo, hi)
	}
	wg.Wait()
}

// ParMap is ParFill for shards that return a value, in shard order.
func ParMap[T, R any](dst []T, workers int, f func(shard int, part []T, lo int) R) []R {
	chunk := max((len(dst)+workers-1)/workers, 1)
	out := make([]R, (len(dst)+chunk-1)/chunk)
	ParFill(out, len(out), func(s int, slot []R, _ int) {
		lo := s * chunk
		hi := min(lo+chunk, len(dst))
		slot[0] = f(s, dst[lo:hi:hi], lo)
	})
	return out
}

// Index numbers n points.
type Index struct{ n int }

// DenseSet is a bit set over a fixed universe of points.
type DenseSet struct {
	n    int
	bits []uint64
}

// NewDense returns a fresh empty set over n points.
func NewDense(n int) *DenseSet {
	return &DenseSet{n: n, bits: make([]uint64, (n+63)/64)}
}

// Select returns the set of points keep accepts, filling the words
// shard by shard; stop is polled between words.
func (x *Index) Select(workers int, stop func() bool, keep func(id int) bool) *DenseSet {
	s := NewDense(x.n)
	ParFill(s.bits, workers, func(_ int, part []uint64, lo int) {
		for j := range part {
			if stop != nil && stop() {
				return
			}
			for k := 0; k < 64 && (lo+j)*64+k < x.n; k++ {
				if keep((lo+j)*64 + k) {
					part[j] |= 1 << k
				}
			}
		}
	})
	return s
}

// add inserts id.
func (s *DenseSet) add(id int) { s.bits[id/64] |= 1 << uint(id%64) } // want-fact:"shardsafe:WritesReceiver"

// remove deletes id.
func (s *DenseSet) remove(id int) { s.bits[id/64] &^= 1 << uint(id%64) } // want-fact:"shardsafe:WritesReceiver"

// Contains reports membership without writing.
func (s *DenseSet) Contains(id int) bool {
	return s.bits[id/64]&(1<<uint(id%64)) != 0
}

// unionWith merges t into the receiver word by word.
func (s *DenseSet) unionWith(t *DenseSet) { // want-fact:"shardsafe:WritesReceiver"
	for i := range s.bits {
		s.bits[i] |= t.bits[i]
	}
}

// ShardScratch fills a set each shard allocates itself: clean.
func ShardScratch(xs []int32, workers int) {
	ParFill(xs, workers, func(_ int, part []int32, _ int) {
		scratch := NewDense(len(part))
		for j := range part {
			scratch.add(j)
		}
	})
}

// SetMethods call DenseSet methods that write their receiver on a
// captured set, pointwise or whole.
func SetMethods(xs []int32, out, extra *DenseSet, workers int) {
	ParFill(xs, workers, func(_ int, part []int32, lo int) {
		for j := range part {
			out.add(lo + j) // want `write through captured out`
		}
		out.remove(len(xs) - 1) // want `write through captured out`
		out.unionWith(extra)    // want `write through captured out`
	})
}
