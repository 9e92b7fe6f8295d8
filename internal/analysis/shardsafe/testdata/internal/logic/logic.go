// Package logic exercises the captured-write rule inside fan-out bodies:
// writes to the part a shard is handed, to its own locals and through
// what it allocates stay clean; every write to captured state, or through
// a local bound to it, is flagged. A goroutine started outside the
// fan-out primitives is flagged too.
package logic

import (
	"sync"

	"kpa/internal/system"
)

// FillPart writes only the part ParFill hands the shard.
func FillPart(out []int32, workers int) {
	system.ParFill(out, workers, func(_ int, part []int32, lo int) {
		for j := range part {
			part[j] = int32(lo + j)
		}
	})
}

// ShardTable reads the shard's row of a captured table and writes only
// its part: the remap shape of PartitionBy's phase 3.
func ShardTable(blockOf []int32, tables [][]int32, workers int) {
	system.ParFill(blockOf, workers, func(shard int, part []int32, _ int) {
		tab := tables[shard]
		for j, b := range part {
			part[j] = tab[b]
		}
	})
}

// MapSums returns each shard's sum through ParMap: the replacement for
// the slot idiom and the mutex merge.
func MapSums(xs []int64, workers int) int64 {
	total := int64(0)
	for _, s := range system.ParMap(xs, workers, func(_ int, part []int64, _ int) int64 {
		sum := int64(0)
		for _, x := range part {
			sum += x
		}
		return sum
	}) {
		total += s
	}
	return total
}

// PurePredicate reads captured state only.
func PurePredicate(idx *system.Index, ext *system.DenseSet, workers int) *system.DenseSet {
	return idx.Select(workers, nil, func(id int) bool { return ext.Contains(id) })
}

// scratchPair allocates a scratch buffer and reports its length.
func scratchPair(n int) ([]int32, int) { return make([]int32, n), n }

// ShardOwned allocates per shard: writes through what the shard
// allocated, zero-valued or bound from a call, and through a pointer to a
// local, stay clean.
func ShardOwned(xs []int32, workers int) {
	system.ParFill(xs, workers, func(shard int, part []int32, lo int) {
		var buf []int32
		buf = make([]int32, len(part)+1)
		buf[0] = int32(shard)
		tmp, m := scratchPair(len(part))
		if m > 0 {
			tmp[0] = int32(lo)
		}
		count := 0
		p := &count
		*p = len(part)
	})
}

// CapturedElementWrite writes the shard's own range of a captured slice
// by index instead of through part.
func CapturedElementWrite(out []int32, workers int) {
	system.ParFill(out, workers, func(_ int, part []int32, lo int) {
		for j := range part {
			out[lo+j] = int32(j) // want `write through captured out`
		}
	})
}

// WordWrite sets bits of a captured bitset from a fill over another
// slice.
func WordWrite(pass []bool, bits []uint64, workers int) {
	system.ParFill(pass, workers, func(_ int, part []bool, lo int) {
		for j := range part {
			id := lo + j
			bits[id/64] |= 1 << uint(id%64) // want `write through captured bits`
		}
	})
}

// SlotWrite stores each shard's sum in its slot of a captured table.
func SlotWrite(xs []int64, perShard []int64, workers int) {
	system.ParFill(xs, workers, func(shard int, part []int64, _ int) {
		sum := int64(0)
		for _, x := range part {
			sum += x
		}
		perShard[shard] = sum // want `write through captured perShard`
	})
}

// CapturedCounter increments an enclosing variable from every shard.
func CapturedCounter(xs []int32, workers int) int {
	total := 0
	system.ParFill(xs, workers, func(_ int, part []int32, _ int) {
		for range part {
			total++ // want `write to captured total`
		}
	})
	return total
}

// MutexMerge merges under a lock: ParMap returns the sums instead.
func MutexMerge(xs []int32, workers int) int {
	var mu sync.Mutex
	total := 0
	system.ParFill(xs, workers, func(_ int, part []int32, _ int) {
		sum := 0
		for _, x := range part {
			sum += int(x)
		}
		mu.Lock()
		total += sum // want `write to captured total`
		mu.Unlock()
	})
	return total
}

// CrossAppend grows a captured slice from every shard.
func CrossAppend(xs []int32, workers int) []int32 {
	var out []int32
	system.ParFill(xs, workers, func(_ int, part []int32, _ int) {
		out = append(out, part...) // want `write to captured out` `write through captured out`
	})
	return out
}

// SharedMapWrite writes a captured map: even disjoint keys race on the
// map's internals.
func SharedMapWrite(xs []int32, m map[int]int32, workers int) {
	system.ParFill(xs, workers, func(_ int, part []int32, lo int) {
		for j, x := range part {
			m[lo+j] = x // want `write through captured m`
		}
		delete(m, lo) // want `write through captured m`
	})
}

// CopyIntoCaptured copies the part into a captured buffer.
func CopyIntoCaptured(xs, buf []int32, workers int) {
	system.ParFill(xs, workers, func(_ int, part []int32, lo int) {
		copy(buf[lo:], part) // want `write through captured buf`
	})
}

// SubsliceWindow writes through the shard's window of a captured slice
// instead of the part it was handed.
func SubsliceWindow(xs, buf []int32, workers int) {
	system.ParFill(xs, workers, func(_ int, part []int32, lo int) {
		mine := buf[lo : lo+len(part)]
		for j := range mine {
			mine[j] = 1 // want `write through mine, which is bound to captured state`
		}
	})
}

// AliasEscape smuggles a captured slice into a local and writes through
// it: the alias does not launder the capture.
func AliasEscape(xs []int32, shared []int64, workers int) {
	system.ParFill(xs, workers, func(_ int, _ []int32, _ int) {
		mine := shared
		alias := mine
		alias[0] = 1 // want `write through alias, which is bound to captured state`
	})
}

// ReboundOnOnePath allocates per shard but rebinds the local to a
// captured slice on one path.
func ReboundOnOnePath(xs []int32, shared []int64, workers int) {
	system.ParFill(xs, workers, func(shard int, _ []int32, _ int) {
		buf := make([]int64, 1)
		if shard == 0 {
			buf = shared
		}
		buf[0] = 1 // want `write through buf, which is bound to captured state`
	})
}

// RangeOverCaptured writes through range values of a captured table:
// every shard sees the same rows.
func RangeOverCaptured(xs []int32, rows [][]int32, workers int) {
	system.ParFill(xs, workers, func(shard int, _ []int32, _ int) {
		for _, row := range rows {
			row[0] = int32(shard) // want `write through row, which is bound to captured state`
		}
	})
}

// PredicateWrite counts from inside a Select predicate, which runs on
// every shard.
func PredicateWrite(idx *system.Index, workers int) int {
	calls := 0
	idx.Select(workers, nil, func(id int) bool {
		calls++ // want `write to captured calls`
		return id%2 == 0
	})
	return calls
}

// HandRolledShards spawns a goroutine directly instead of going through
// ParFill: the fan-out bypasses the engine's worker budget.
func HandRolledShards(n int, out []int) {
	done := make(chan struct{})
	go func() { // want `hand-rolled goroutine fan-out`
		for i := 0; i < n; i++ {
			out[i] = i
		}
		close(done)
	}()
	<-done
}
