package system

import (
	"sync"
	"sync/atomic"
)

// This file holds the package's parallel-execution primitives: the typed
// fan-outs ParFill and ParMap, which hand each shard the only part of a
// slice it may write, and Gate, the shared goroutine-token pool that makes
// one parallelism budget compose across concurrent evaluators instead of
// multiplying by the number of in-flight requests.

// ParFill splits dst into at most workers contiguous parts and calls
// fill(shard, part, lo) on each, where part is dst[lo:lo+len(part)] with
// its capacity cut at its end, so a shard can write only its own
// elements. The first part runs on the calling goroutine, every other on a
// goroutine of its own, and ParFill returns once all have finished. The
// parts tile dst exactly once and their boundaries depend only on len(dst)
// and workers. With one worker, or one element, fill runs once on the
// caller over all of dst; with an empty dst it never runs.
//
// ParFill holds the engine's only go statement: every sharded sweep in
// internal/system and internal/logic fans out through it.
func ParFill[T any](dst []T, workers int, fill func(shard int, part []T, lo int)) {
	chunk, count := split(len(dst), workers)
	if count <= 1 {
		if count == 1 {
			fill(0, dst, 0)
		}
		return
	}
	var wg sync.WaitGroup
	for s := 1; s < count; s++ {
		lo := s * chunk
		hi := min(lo+chunk, len(dst))
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill(s, dst[lo:hi:hi], lo)
		}()
	}
	fill(0, dst[:chunk:chunk], 0)
	wg.Wait()
}

// ParMap is ParFill for shards that also produce a value: it splits dst
// as ParFill does and returns f's results in shard order.
func ParMap[T, R any](dst []T, workers int, f func(shard int, part []T, lo int) R) []R {
	chunk, count := split(len(dst), workers)
	out := make([]R, count)
	// count workers over count slots hand shard s exactly out[s:s+1].
	ParFill(out, count, func(s int, slot []R, _ int) {
		lo := s * chunk
		hi := min(lo+chunk, len(dst))
		slot[0] = f(s, dst[lo:hi:hi], lo)
	})
	return out
}

// split returns the part length and the part count ParFill uses for n
// elements and the given worker count; the last part may be shorter.
func split(n, workers int) (chunk, count int) {
	if n <= 0 {
		return 0, 0
	}
	workers = max(workers, 1)
	chunk = (n + workers - 1) / workers
	return chunk, (n + chunk - 1) / chunk
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
