package gen

import (
	"fmt"
	"strconv"

	"kpa/internal/rat"
	"kpa/internal/system"
)

// ScaleConfig describes a deterministic "broom" system sized for the scale
// tiers of the benchmark gate: one computation tree whose root fans out into
// NumRuns equiprobable probability-1 chains, giving NumRuns × RunLen points.
// Agent i observes bucket (run / Buckets^i) mod Buckets plus the time, so
// the system is synchronous, every information cell at time k ≥ 1 spans
// NumRuns/Buckets runs (knowledge is nontrivial at every size), and the
// number of cells per agent — 1 + (RunLen−1) × Buckets — stays small no
// matter how many points the system has, which is what keeps the per-space
// probability work constant while the per-point sweeps grow.
//
// Construction is deliberately allocation-lean so 10^6–10^7-point systems
// build in seconds: local-state strings are interned per (agent, time,
// bucket), local-state tuples are shared across runs with equal bucket
// vectors, every node's environment component is minted fresh (so the
// paper's global-state uniqueness assumption holds by construction and
// system.NewTrusted may skip its duplicate map), and the uniform run
// distribution gives the tree all-ones integer run weights.
type ScaleConfig struct {
	// NumAgents is the number of agents (≥ 1).
	NumAgents int
	// NumRuns is the number of runs, the broom's fan-out (≥ 2).
	NumRuns int
	// RunLen is the number of points per run, root included (≥ 2).
	RunLen int
	// Buckets is the observation alphabet size per agent (≥ 2). NumRuns
	// should be a multiple of Buckets so cells are evenly sized, but any
	// value ≥ 2 is accepted.
	Buckets int
}

// NumPoints returns the point count of the configured system.
func (c ScaleConfig) NumPoints() int { return c.NumRuns * c.RunLen }

// ScaleTiers are the standard benchmark sizes: ~10^5, ~10^6 and ~10^7
// points. Keyed by the label scripts/bench.sh puts in its scale rows' names.
var ScaleTiers = map[string]ScaleConfig{
	"100k": {NumAgents: 3, NumRuns: 8192, RunLen: 12, Buckets: 32},
	"1m":   {NumAgents: 3, NumRuns: 65536, RunLen: 16, Buckets: 64},
	"10m":  {NumAgents: 3, NumRuns: 1048576, RunLen: 10, Buckets: 32},
}

// ScaleSystem builds the broom system for the configuration. The system is
// assembled with system.NewTrusted: every environment component is unique
// by construction, and the map-based indices stay unbuilt until an accessor
// needs them, so the dense-engine path pays only for the tree itself.
func ScaleSystem(cfg ScaleConfig) (*system.System, error) {
	if cfg.NumAgents < 1 || cfg.NumRuns < 2 || cfg.RunLen < 2 || cfg.Buckets < 2 {
		return nil, fmt.Errorf("gen: invalid scale config %+v", cfg)
	}
	// Interned local-state strings, by (agent, time, bucket).
	names := make([][][]system.LocalState, cfg.NumAgents)
	for i := range names {
		names[i] = make([][]system.LocalState, cfg.RunLen)
		for k := 1; k < cfg.RunLen; k++ {
			names[i][k] = make([]system.LocalState, cfg.Buckets)
			for b := 0; b < cfg.Buckets; b++ {
				names[i][k][b] = system.LocalState(
					"a" + strconv.Itoa(i) + ":t" + strconv.Itoa(k) + ":b" + strconv.Itoa(b))
			}
		}
	}
	// Bucket vectors repeat with period Buckets^NumAgents, so runs with
	// equal r mod period share one local-state tuple per time step.
	period := 1
	for i := 0; i < cfg.NumAgents && period < cfg.NumRuns; i++ {
		period *= cfg.Buckets
	}
	if period > cfg.NumRuns {
		period = cfg.NumRuns
	}
	locals := make([][]system.LocalState, cfg.RunLen*period)
	localsFor := func(k, r int) []system.LocalState {
		slot := (k-1)*period + r%period
		if ls := locals[slot]; ls != nil {
			return ls
		}
		ls := make([]system.LocalState, cfg.NumAgents)
		div := 1
		for i := 0; i < cfg.NumAgents; i++ {
			ls[i] = names[i][k][(r/div)%cfg.Buckets]
			div *= cfg.Buckets
		}
		locals[slot] = ls
		return ls
	}

	rootLocals := make([]system.LocalState, cfg.NumAgents)
	for i := range rootLocals {
		rootLocals[i] = system.LocalState("a" + strconv.Itoa(i) + ":t0:root")
	}
	tb := system.NewTree("scale", system.GlobalState{Env: "root", Locals: rootLocals})
	tb.Grow(cfg.NumRuns * (cfg.RunLen - 1))
	branch := rat.New(1, int64(cfg.NumRuns))
	for r := 0; r < cfg.NumRuns; r++ {
		prefix := "r" + strconv.Itoa(r) + "."
		id := tb.Child(0, branch, system.GlobalState{
			Env: prefix + "1", Locals: localsFor(1, r)})
		for k := 2; k < cfg.RunLen; k++ {
			id = tb.Child(id, rat.One, system.GlobalState{
				Env: prefix + strconv.Itoa(k), Locals: localsFor(k, r)})
		}
	}
	tree, err := tb.Build()
	if err != nil {
		return nil, err
	}
	return system.NewTrusted(cfg.NumAgents, tree)
}

// MustScaleSystem is ScaleSystem but panics on error.
func MustScaleSystem(cfg ScaleConfig) *system.System {
	sys, err := ScaleSystem(cfg)
	if err != nil {
		panic(err)
	}
	return sys
}

// ScaleFact returns a deterministic fact for scale systems: it holds at a
// point iff (run + time) mod modulus is nonzero. The fact is a pure
// function of the point — no table lookups, no shared state — so it is safe
// for the parallel engine's sharded proposition scans, and its truth varies
// inside every information cell, which keeps the knowledge operators
// nontrivial.
func ScaleFact(name string, modulus int) system.Fact {
	if modulus < 2 {
		modulus = 2
	}
	return system.NewFact(name, func(p system.Point) bool {
		return (p.Run+p.Time)%modulus != 0
	})
}
