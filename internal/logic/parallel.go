package logic

import (
	"sync"
	"sync/atomic"

	"kpa/internal/system"
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
// workers come from one system.Gate of budget−1 tokens, so across every
// concurrent evaluation the engine runs at most budget−1 extra goroutines;
// a sweep that finds the gate drained runs serially. The counters are
// atomics, safe for concurrent evaluators.
//
// A nil *Engine is the default: budget 1, every sweep serial, no counters.
type Engine struct {
	budget int
	gate   *system.Gate

	// ShardRounds counts fixpoint rounds executed by the common-knowledge
	// operators (C_G and C_G^α), the loops whose per-round sweeps shard.
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
	return &Engine{budget: par, gate: system.NewGate(par - 1)}
}

// Workers borrows workers for one sweep over the given number of points.
// It returns the worker count and a release that must run (deferred) when
// the sweep ends. Below parMinPoints, or at budget 1, it returns 1 and a
// no-op release; otherwise 1 plus the extra workers the gate grants.
func (g *Engine) Workers(points int) (int, func()) {
	if g == nil {
		return 1, func() {}
	}
	if g.budget <= 1 || points < parMinPoints {
		g.SerialPaths.Add(1)
		return 1, func() {}
	}
	extra := g.gate.TryAcquire(g.budget - 1)
	if extra == 0 {
		g.SerialPaths.Add(1)
		return 1, func() {}
	}
	g.ParallelPaths.Add(1)
	return 1 + extra, func() { g.gate.Release(extra) }
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

// combineWorkers borrows workers for one set-algebra combine over the
// index's backing words. Below parMinWords the combine will not shard, so
// it asks Workers for nothing: no token is drawn and the sweep counts as
// serial.
func (e *Evaluator) combineWorkers() (int, func()) {
	if e.idx.Words() < parMinWords {
		return e.eng.Workers(0)
	}
	return e.eng.Workers(e.idx.NumPoints())
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
