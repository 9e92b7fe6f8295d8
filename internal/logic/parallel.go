package logic

import (
	"sync"
	"sync/atomic"
)

// This file holds the evaluator's parallelism plumbing: Engine, the one
// place a sharded sweep borrows extra workers, and the helper that
// propagates cancellation out of a fan-out.

// parMinPoints is the system size below which a sweep over the points stays
// serial whatever the budget: fan-out overhead (goroutine spawn, barrier)
// swamps the sweep itself on small universes. 65536 points ≈ 1k backing
// words. parMinWords is the same threshold for set-algebra combines, which
// split the backing words rather than the points: 32768 words cover 2^21
// points. Variables, not constants, so tests can force the parallel paths on
// small fixtures.
var (
	parMinPoints = 1 << 16
	parMinWords  = 1 << 15
)

// Engine is the dense engine's worker budget, shared by every evaluator it
// is attached to (see SetEngine). The budget is the maximum number of
// goroutines, the caller included, one sweep may fan out to. The extra
// workers come from one gate of budget−1 tokens, so across every
// concurrent evaluation the engine runs at most budget−1 extra goroutines;
// a sweep that finds the gate drained runs serially. The counters are
// atomics, safe for concurrent evaluators.
//
// A nil *Engine is the default: budget 1, every sweep serial, no counters.
type Engine struct {
	budget int
	gate   *gate

	// ShardRounds counts fixpoint rounds executed by C_G^α, the one
	// operator that still iterates, each round a set of sharded sweeps.
	// C_G runs no rounds: it is one K sweep over the group's component
	// partition.
	ShardRounds atomic.Uint64
	// ParallelPaths counts sweeps (index builds, knowledge and probability
	// sweeps, proposition scans, set-algebra combines) that ran with more
	// than one worker.
	ParallelPaths atomic.Uint64
	// SerialPaths counts sweeps that ran on the calling goroutine alone:
	// the budget was 1, the sweep was below its size threshold, or the gate
	// had no tokens left.
	SerialPaths atomic.Uint64
}

// NewEngine returns an engine with a budget of par workers (at least 1).
func NewEngine(par int) *Engine {
	if par < 1 {
		par = 1
	}
	return &Engine{budget: par, gate: newGate(par - 1)}
}

// Sweep runs body with the workers one sweep over the given number of
// points may use, and gives any extra workers back when body returns or
// panics. Below parMinPoints, or at budget 1, body gets 1; otherwise 1
// plus the extra workers the gate grants. A nil engine runs body(1).
func (g *Engine) Sweep(points int, body func(workers int)) {
	if g == nil {
		body(1)
		return
	}
	extra := 0
	if g.budget > 1 && points >= parMinPoints {
		extra = g.gate.tryAcquire(g.budget - 1)
	}
	if extra == 0 {
		g.SerialPaths.Add(1)
		body(1)
		return
	}
	g.ParallelPaths.Add(1)
	defer g.gate.release(extra)
	body(1 + extra)
}

// gate is a pool of goroutine tokens bounding how many extra shard workers
// an engine may fan out to across all concurrent evaluations. Acquisition
// never blocks: a contended gate degrades sweeps toward the serial path
// instead of queueing them.
type gate struct {
	avail atomic.Int64
}

// newGate returns a gate holding n tokens (none for n ≤ 0).
func newGate(n int) *gate {
	g := &gate{}
	if n > 0 {
		g.avail.Store(int64(n))
	}
	return g
}

// tryAcquire takes up to k tokens without blocking and returns how many it
// got (possibly 0).
func (g *gate) tryAcquire(k int) int {
	if k <= 0 {
		return 0
	}
	for {
		cur := g.avail.Load()
		if cur <= 0 {
			return 0
		}
		take := min(int64(k), cur)
		if g.avail.CompareAndSwap(cur, cur-take) {
			return int(take)
		}
	}
}

// release returns k tokens to the gate.
func (g *gate) release(k int) {
	if k > 0 {
		g.avail.Add(int64(k))
	}
}

// SetEngine attaches the worker budget the evaluator's sweeps borrow from.
// The default, nil, keeps every kernel on the serial path.
//
// With a budget above 1, primitive-proposition facts and the cancellation
// hook are called from multiple goroutines concurrently and MUST be safe for
// that: facts should be pure functions of the point, and the hook should
// read an atomic or a closed-channel signal (the service's context hook
// qualifies). The evaluator itself remains single-checkout — parallelism is
// inside one evaluation, not across evaluations.
func (e *Evaluator) SetEngine(g *Engine) { e.eng = g }

// combine runs one set-algebra combine over the index's backing words
// with the workers it may use. Below parMinWords the combine will not
// shard, so it asks Sweep for nothing: no token is drawn and the sweep
// counts as serial.
func (e *Evaluator) combine(body func(workers int)) {
	points := e.idx.NumPoints()
	if e.idx.Words() < parMinWords {
		points = 0
	}
	e.eng.Sweep(points, body)
}

// parStop adapts the evaluator's cancellation hook to the stop-function
// polling protocol of the sharded kernels: shards poll stop between strides,
// the first hook error is recorded, and the caller checks Err after the
// fan-out barrier. Safe for concurrent shards; once a shard observes an
// error every later poll returns true immediately without re-invoking the
// hook.
type parStop struct {
	cancel  func() error
	stopped atomic.Bool
	mu      sync.Mutex
	err     error
}

// stopFn returns the polling function for the sharded kernels, or nil when
// no hook is installed (kernels skip polling entirely then).
func (e *Evaluator) stopFn() (*parStop, func() bool) {
	if e.cancel == nil {
		return nil, nil
	}
	ps := &parStop{cancel: e.cancel}
	return ps, ps.stop
}

func (s *parStop) stop() bool {
	if s.stopped.Load() {
		return true
	}
	if err := s.cancel(); err != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
		s.stopped.Store(true)
		return true
	}
	return false
}

// Err returns the first error a shard's poll observed, if any. Only valid
// after the fan-out's barrier.
func (s *parStop) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
