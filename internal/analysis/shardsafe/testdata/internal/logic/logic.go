// Package logic exercises the shard-disjoint write discipline inside
// system.ParRange bodies: the four sanctioned idioms stay clean, every
// cross-shard write is flagged.
package logic

import (
	"sync"

	"kpa/internal/system"
)

// ShardedFill writes disjoint elements of a shared slice: the loop
// variable is confined to [lo, hi), so element writes never collide.
func ShardedFill(n, workers int, out []int32) {
	system.ParRange(n, 1, workers, func(shard, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = int32(i)
		}
	})
}

// WordWriteAligned performs 64-bit word writes under a 64-aligned
// ParRange: shard boundaries never split a word, so id/64 is disjoint.
func WordWriteAligned(n, workers int, bits []uint64) {
	system.ParRange(n, 64, workers, func(shard, lo, hi int) {
		for id := lo; id < hi; id++ {
			bits[id/64] |= 1 << uint(id%64)
		}
	})
}

// WordWriteMisaligned performs the same word writes under alignment 1:
// two shards may share a word, and the RMW update races.
func WordWriteMisaligned(n, workers int, bits []uint64) {
	system.ParRange(n, 1, workers, func(shard, lo, hi int) {
		for id := lo; id < hi; id++ {
			bits[id/64] |= 1 << uint(id%64) // want `not provably shard-disjoint`
		}
	})
}

// SlotIdiom accumulates into the shard's own slot of a pre-sized table.
func SlotIdiom(n, workers int, perShard []int64) {
	system.ParRange(n, 1, workers, func(shard, lo, hi int) {
		sum := int64(0)
		for i := lo; i < hi; i++ {
			sum += int64(i)
		}
		perShard[shard] = sum
	})
}

// SlotTable reads the shard's slot once and writes freely through it.
func SlotTable(n, workers int, tables [][]int32) {
	system.ParRange(n, 1, workers, func(shard, lo, hi int) {
		tab := tables[shard]
		for i := range tab {
			tab[i] = 0
		}
	})
}

// CapturedCounter increments an enclosing variable from every shard.
func CapturedCounter(n, workers int) int {
	total := 0
	system.ParRange(n, 1, workers, func(shard, lo, hi int) {
		for i := lo; i < hi; i++ {
			total++ // want `write to captured variable total`
		}
	})
	return total
}

// CrossAppend grows a shared slice from every shard: append moves the
// backing array under concurrent readers.
func CrossAppend(n, workers int) []int {
	var out []int
	system.ParRange(n, 1, workers, func(shard, lo, hi int) {
		for i := lo; i < hi; i++ {
			out = append(out, i) // want `append to captured out`
		}
	})
	return out
}

// MutexMerge accumulates per shard and merges under a lock: the
// merge-under-mutex idiom stays clean.
func MutexMerge(n, workers int) int {
	var mu sync.Mutex
	total := 0
	system.ParRange(n, 1, workers, func(shard, lo, hi int) {
		sum := 0
		for i := lo; i < hi; i++ {
			sum += i
		}
		mu.Lock()
		total += sum
		mu.Unlock()
	})
	return total
}

// SharedMapWrite writes a captured map: even disjoint keys race on the
// map's internals.
func SharedMapWrite(n, workers int, m map[int]int) {
	system.ParRange(n, 1, workers, func(shard, lo, hi int) {
		for i := lo; i < hi; i++ {
			m[i] = i // want `write to captured map m`
		}
	})
}

// PointwiseAligned calls the pointwise mutator Add (word divisor 64)
// under a 64-aligned ParRange: exactly as safe as the inline word write.
func PointwiseAligned(n, workers int, out *system.DenseSet) {
	system.ParRange(n, 64, workers, func(shard, lo, hi int) {
		for id := lo; id < hi; id++ {
			out.Add(id)
		}
	})
}

// PointwiseMisaligned calls Add under alignment 1: shards may share the
// written word.
func PointwiseMisaligned(n, workers int, out *system.DenseSet) {
	system.ParRange(n, 1, workers, func(shard, lo, hi int) {
		for id := lo; id < hi; id++ {
			out.Add(id) // want `writes word index/64`
		}
	})
}

// PointwiseUnbounded calls Add with an index that ignores the shard's
// range entirely.
func PointwiseUnbounded(n, workers int, out *system.DenseSet) {
	system.ParRange(n, 64, workers, func(shard, lo, hi int) {
		out.Add(n - 1) // want `index not derived from the shard's lo:hi range`
	})
}

// BulkOnCaptured runs a whole-set mutator on a captured set from every
// shard.
func BulkOnCaptured(n, workers int, out, extra *system.DenseSet) {
	system.ParRange(n, 64, workers, func(shard, lo, hi int) {
		out.UnionWith(extra) // want `bulk-mutates a captured set`
	})
}

// FreshScratch allocates per shard: bulk mutation of shard-owned state
// is unrestricted.
func FreshScratch(n, workers int, tables []*system.DenseSet) {
	system.ParRange(n, 64, workers, func(shard, lo, hi int) {
		scratch := system.NewDense(n)
		for id := lo; id < hi; id++ {
			scratch.Add(id)
		}
		scratch.UnionWith(tables[shard])
	})
}

// SubsliceOwned writes through the shard's own lo:hi window of a shared
// backing array.
func SubsliceOwned(n, workers int, buf []int32) {
	system.ParRange(n, 1, workers, func(shard, lo, hi int) {
		mine := buf[lo:hi]
		for i := range mine {
			mine[i] = 1
		}
	})
}

// AliasEscape smuggles a captured slice into a local and writes through
// it at an unbounded index: the alias does not launder the capture.
func AliasEscape(n, workers int, shared []int64) {
	system.ParRange(n, 1, workers, func(shard, lo, hi int) {
		mine := shared
		mine[0] = 1 // want `not provably shard-disjoint`
	})
}

// ZeroThenAllocate declares a shard-local buffer without an initializer
// and allocates it later: both definitions are shard-owned.
func ZeroThenAllocate(n, workers int) {
	system.ParRange(n, 1, workers, func(shard, lo, hi int) {
		var buf []int32
		buf = make([]int32, hi-lo+1)
		buf[0] = int32(shard)
	})
}

// scratchPair allocates a scratch buffer and reports its length.
func scratchPair(n int) ([]int32, int) { return make([]int32, n), n }

// TupleFromCall binds shard-local scratch from a multi-value call: the
// shard asked for the allocation, so writes through it stay clean.
func TupleFromCall(n, workers int) {
	system.ParRange(n, 1, workers, func(shard, lo, hi int) {
		buf, m := scratchPair(hi - lo)
		if m > 0 {
			buf[0] = int32(shard)
		}
	})
}

// ReboundOnOnePath allocates per shard but rebinds the local to a
// captured slice on one path: one shared definition makes the write
// unsafe.
func ReboundOnOnePath(n, workers int, shared []int64) {
	system.ParRange(n, 1, workers, func(shard, lo, hi int) {
		buf := make([]int64, 1)
		if shard == 0 {
			buf = shared
		}
		buf[0] = 1 // want `not provably shard-disjoint`
	})
}

// RangeOverCaptured writes through range values of a captured table:
// every shard sees the same rows.
func RangeOverCaptured(n, workers int, rows [][]int32) {
	system.ParRange(n, 1, workers, func(shard, lo, hi int) {
		for _, row := range rows {
			row[0] = int32(shard) // want `not provably shard-disjoint`
		}
	})
}

// UpdateThenPoint accumulates into a shard-local counter with op= and
// writes through a pointer to it: an update keeps the variable's
// shard-owned provenance.
func UpdateThenPoint(n, workers int) {
	system.ParRange(n, 1, workers, func(shard, lo, hi int) {
		count := 0
		for i := lo; i < hi; i++ {
			count += i
		}
		p := &count
		*p = 0
	})
}
