package system

import (
	"sync"
	"sync/atomic"
)

// This file holds the package's parallel-execution primitives: ParRange,
// the word-aligned fan-out helper every sharded sweep in the dense engine
// is built on, and Gate, the shared goroutine-token pool that makes one
// parallelism budget compose across concurrent evaluators instead of
// multiplying by the number of in-flight requests.

// ParRange splits [0, n) into at most workers contiguous chunks and runs
// body on each, spawning workers−1 goroutines and running the first chunk
// on the calling goroutine; it returns only after every chunk has finished.
// body receives its shard number and half-open range [lo, hi).
//
// When align > 1, every chunk boundary except the last is a multiple of
// align. Sharded sweeps that write bits of a shared DenseSet use align 64
// so that distinct shards touch distinct backing words — the discipline
// that makes those direct writes race-free without locks (see
// docs/PERFORMANCE.md).
//
// With workers ≤ 1 (or n small enough that one chunk covers it) body runs
// exactly once on the calling goroutine and no goroutine is spawned, so
// serial callers pay nothing.
func ParRange(n, align, workers int, body func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	if align < 1 {
		align = 1
	}
	chunk := (n + workers - 1) / workers
	if workers <= 1 || chunk >= n {
		body(0, 0, n)
		return
	}
	// Round the chunk up to the alignment so interior boundaries stay
	// aligned; recompute the shard count accordingly.
	chunk = (chunk + align - 1) / align * align
	if chunk >= n {
		body(0, 0, n)
		return
	}
	shards := (n + chunk - 1) / chunk
	var wg sync.WaitGroup
	for s := 1; s < shards; s++ {
		lo := s * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			body(s, lo, hi)
		}(s, lo, hi)
	}
	body(0, 0, chunk)
	wg.Wait()
}

// Gate is a shared pool of goroutine tokens bounding how many extra shard
// workers the dense engine may fan out to across all concurrent
// evaluations. logic.Engine draws up to budget−1 tokens for each sharded
// sweep and runs it with 1 + acquired workers, so the total number of
// extra engine goroutines never exceeds the gate's capacity no matter how
// many evaluations are in flight — the composition rule the service's
// admission control relies on.
//
// Acquisition never blocks: a contended gate degrades regions toward the
// serial path instead of queueing them.
type Gate struct {
	avail atomic.Int64
}

// NewGate returns a gate holding n tokens (none for n ≤ 0).
func NewGate(n int) *Gate {
	g := &Gate{}
	if n > 0 {
		g.avail.Store(int64(n))
	}
	return g
}

// TryAcquire takes up to k tokens without blocking and returns how many it
// got (possibly 0).
func (g *Gate) TryAcquire(k int) int {
	if k <= 0 {
		return 0
	}
	for {
		cur := g.avail.Load()
		if cur <= 0 {
			return 0
		}
		take := int64(k)
		if take > cur {
			take = cur
		}
		if g.avail.CompareAndSwap(cur, cur-take) {
			return int(take)
		}
	}
}

// Release returns k tokens to the gate.
func (g *Gate) Release(k int) {
	if k <= 0 {
		return
	}
	g.avail.Add(int64(k))
}
