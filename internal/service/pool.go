package service

import (
	"sync"

	"kpa/internal/core"
	"kpa/internal/logic"
	"kpa/internal/system"
)

// worker is the unit an evalPool checks out to a goroutine: a non-thread-safe
// logic.Evaluator over the pool's model, whose memo is the worker's own.
// The caller hands it the node it parsed; the parser hash-conses, so a
// re-parse of a formula returns the node the evaluator's memo is keyed by,
// which keeps a warm worker's memo effective across checkouts.
type worker struct {
	eval *logic.Evaluator

	// poisoned is set when an evaluation on this worker panicked: its memo
	// (maps mid-insert) can no longer be trusted, so lend discards the
	// worker instead of lending it to the next request. The model's tables
	// need no such care: a build publishes only once complete. Only the
	// goroutine holding the checkout touches the flag.
	poisoned bool
}

// evalPool lends warm evaluators to request goroutines for one
// (system, probability assignment) pair. Every worker is an evaluator over
// the pool's one model, so a proposition extension or space table one
// worker built serves them all. logic.Evaluator is not safe for concurrent
// use, so each checkout owns its worker exclusively; on return the worker
// keeps its memo (warm) unless the memo grew past memoCap, in which case it
// is Reset. The pool creates workers on demand and keeps at most maxIdle of
// them between requests.
type evalPool struct {
	sys    *system.System
	sample core.SampleAssignment
	model  *logic.Model
	eng    *logic.Engine

	memoCap int

	mu        sync.Mutex
	idle      []*worker // guarded by mu
	created   uint64    // guarded by mu; cold checkouts: a new worker was built
	reused    uint64    // guarded by mu; warm checkouts: an idle worker was handed out
	resets    uint64    // guarded by mu; workers whose memo was dropped on return
	discarded uint64    // guarded by mu; poisoned workers dropped instead of repooled
}

func newEvalPool(sys *system.System, sample core.SampleAssignment, props map[string]system.Fact, memoCap int, eng *logic.Engine) *evalPool {
	return &evalPool{
		sys:     sys,
		sample:  sample,
		model:   logic.NewModel(sys, core.NewProbAssignment(sys, sample), props),
		eng:     eng,
		memoCap: memoCap,
	}
}

// lend checks a worker out, runs fn on it, and gives the worker back when
// fn returns or panics. A warm idle worker is reused; otherwise a new
// evaluator over the pool's model is made. On the way back the worker is
// reset if its memo outgrew the cap and dropped if the pool is already full
// of idle workers. The cap is measured in bitset words (MemoWords), so the
// budget tracks the real retained footprint: memos over big systems cost
// proportionally more than memos over small ones.
//
// A poisoned worker — one whose evaluation panicked — is never repooled:
// its half-mutated memo cannot be trusted, so it is counted and dropped for
// the garbage collector, and the next checkout makes a clean replacement.
func (p *evalPool) lend(fn func(w *worker) error) error {
	var w *worker
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		w = p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.reused++
	} else {
		p.created++
	}
	p.mu.Unlock()
	if w == nil {
		// The index build comes first so the session's one-time point index
		// is sharded under the engine budget instead of built serially
		// inside NewEvaluator; the index is once-guarded, so only the first
		// caller per system pays.
		p.eng.Sweep(p.sys.NumPoints(), func(workers int) { p.sys.BuildIndex(workers) })
		ev := p.model.NewEvaluator()
		ev.SetEngine(p.eng)
		w = &worker{eval: ev}
	}
	defer func() {
		reset := !w.poisoned && w.eval.MemoWords() > p.memoCap
		if reset {
			w.eval.Reset()
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		if w.poisoned {
			p.discarded++
			return
		}
		if reset {
			p.resets++
		}
		if len(p.idle) < maxIdle {
			p.idle = append(p.idle, w)
		}
	}()
	return fn(w)
}

// PoolStats is a point-in-time snapshot of one evaluator pool's counters.
type PoolStats struct {
	System     string `json:"system"`
	Assignment string `json:"assignment"`
	Idle       int    `json:"idle"`
	Created    uint64 `json:"created"`
	Reused     uint64 `json:"reused"`
	Resets     uint64 `json:"resets"`
	Discarded  uint64 `json:"discarded"`
}

func (p *evalPool) stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Assignment: p.sample.Name(),
		Idle:       len(p.idle),
		Created:    p.created,
		Reused:     p.reused,
		Resets:     p.resets,
		Discarded:  p.discarded,
	}
}
