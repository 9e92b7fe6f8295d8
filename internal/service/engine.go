package service

import (
	"kpa/internal/logic"
	"kpa/internal/system"
)

// engine bundles the dense engine's shared parallelism state: the budget,
// the token gate that makes the budget global across concurrent
// evaluations, and the activity counters surfaced through /v1/stats. One
// engine per Service; every evaluator the pools build is wired to it.
type engine struct {
	par     int
	gate    *system.Gate
	metrics *logic.EngineMetrics
}

// newEngine builds the shared engine state for a parallelism budget. The
// gate holds par−1 tokens — the extra workers beyond the goroutine an
// evaluation already owns — so with par = 1 the gate is empty and every
// kernel runs serially, exactly the pre-parallel engine.
func newEngine(par int) *engine {
	if par < 1 {
		par = 1
	}
	return &engine{
		par:     par,
		gate:    system.NewGate(par - 1),
		metrics: &logic.EngineMetrics{},
	}
}

// withWorkers runs fn with as many workers as the budget currently allows,
// drawing the extra ones from the shared gate so concurrent builds and
// evaluations still respect the global bound. It is the one place the
// service draws from the gate outside an evaluator: a pool's cold checkout
// builds the point index with it, and a snapshot restore builds the index
// and every agent's cells.
func (e *engine) withWorkers(fn func(workers int)) {
	extra := e.gate.TryAcquire(e.par - 1)
	defer e.gate.Release(extra)
	fn(1 + extra)
}

// wire attaches the engine to a freshly built evaluator.
func (e *engine) wire(ev *logic.Evaluator) {
	ev.SetParallelism(e.par)
	ev.SetGate(e.gate)
	ev.SetEngineMetrics(e.metrics)
}

// EngineStats snapshots the parallel dense engine: the configured budget
// and how its sharded kernels have been running.
type EngineStats struct {
	// Parallelism is the configured engine budget (Config.Parallelism).
	Parallelism int `json:"parallelism"`
	// ShardRounds counts fixpoint rounds executed by the common-knowledge
	// operators C_G and C_G^α.
	ShardRounds uint64 `json:"shardRounds"`
	// ParallelPaths counts engine regions (knowledge sweeps, probability
	// sweeps, proposition scans, set-algebra combines) that ran sharded
	// across more than one goroutine.
	ParallelPaths uint64 `json:"parallelPaths"`
	// SerialPaths counts engine regions that ran on the calling goroutine
	// alone — budget 1, a system too small to shard, or a drained gate.
	SerialPaths uint64 `json:"serialPaths"`
}

func (e *engine) stats() EngineStats {
	return EngineStats{
		Parallelism:   e.par,
		ShardRounds:   e.metrics.ShardRounds.Load(),
		ParallelPaths: e.metrics.ParallelPaths.Load(),
		SerialPaths:   e.metrics.SerialPaths.Load(),
	}
}
