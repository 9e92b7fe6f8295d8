package service

import "sync"

// flightCall is one in-progress evaluation shared by every request that
// missed the cache on the same (system hash, assignment, formula) key.
type flightCall struct {
	// done is closed by finish after v, err and orphaned are set; followers
	// read the result only after observing the close, so no lock is needed.
	done chan struct{}

	v   Verdict
	err error
	// orphaned records that the leader's own context ended before the
	// evaluation produced a result. The error is the leader's, not the
	// followers': they join again, and one of them evaluates afresh.
	orphaned bool
}

// flightGroup collapses concurrent identical cache misses onto a single
// evaluation: the first caller for a key becomes the leader and evaluates
// on its own goroutine; the rest wait for its result.
type flightGroup struct {
	mu    sync.Mutex
	calls map[cacheKey]*flightCall // guarded by mu
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[cacheKey]*flightCall)}
}

// join returns the key's call, creating the call (and electing the caller
// leader) if none is in flight.
func (g *flightGroup) join(key cacheKey) (c *flightCall, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c, false
	}
	c = &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

// finish publishes the leader's result and wakes every follower. The key
// is freed: a successful verdict is in the cache by now, and a failure
// must not be served to requests that arrive later.
func (g *flightGroup) finish(key cacheKey, c *flightCall, v Verdict, err error, orphaned bool) {
	g.mu.Lock()
	c.v, c.err, c.orphaned = v, err, orphaned
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
}
