// Package system is the fixture's miniature gate and fan-out helper.
// ParFill's own goroutine launch is the one sanctioned fan-out and is
// exempt from the hand-rolled-go diagnostic.
package system

import "sync"

// Gate is a token pool bounding the engine's total extra workers.
type Gate struct {
	mu     sync.Mutex
	tokens int
}

// NewGate returns a gate holding n tokens.
func NewGate(n int) *Gate { return &Gate{tokens: n} }

// TryAcquire takes up to k tokens without blocking and returns how many
// it got.
func (g *Gate) TryAcquire(k int) int {
	if g == nil {
		return k
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if k > g.tokens {
		k = g.tokens
	}
	g.tokens -= k
	return k
}

// Release returns k tokens to the pool.
func (g *Gate) Release(k int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.tokens += k
	g.mu.Unlock()
}

// ParFill splits dst into contiguous parts and runs fill on each,
// concurrently.
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
