// Package gen generates random finite systems for property-based testing:
// random labelled computation trees with random observation structure. The
// paper's theorems quantify over all systems; the canonical examples pin
// the numbers, and randomized systems built here check the structural
// claims (Propositions 1–5, Theorem 7, Proposition 10, …) far from the
// hand-crafted cases.
//
// Generation is deterministic in the seed, so failures reproduce.
package gen

import (
	"fmt"
	"math/rand"
	"strconv"

	"kpa/internal/rat"
	"kpa/internal/system"
)

// Config bounds the generated systems.
type Config struct {
	// NumAgents is the number of agents (≥ 1).
	NumAgents int
	// NumTrees is the number of computation trees (type-1 adversary
	// choices, ≥ 1).
	NumTrees int
	// MaxDepth bounds tree depth (≥ 1).
	MaxDepth int
	// MaxBranch bounds per-node branching (≥ 2 where branching happens).
	MaxBranch int
	// Synchronous forces every agent's local state to encode the time.
	Synchronous bool
	// ObservationLevels controls how much agents see: each agent is
	// randomly assigned to observe the full history, only the time, or
	// nothing (plus the time if Synchronous).
	ObservationLevels bool
}

// DefaultConfig returns modest bounds suitable for exhaustive checking.
func DefaultConfig() Config {
	return Config{
		NumAgents:         2,
		NumTrees:          2,
		MaxDepth:          3,
		MaxBranch:         3,
		Synchronous:       true,
		ObservationLevels: true,
	}
}

// observation is how much of the history an agent's local state reveals.
type observation int

const (
	obsFull observation = iota // sees the full history
	obsTime                    // sees only the clock
	obsNone                    // sees nothing (clock only if synchronous)
)

// System generates a random system from the configuration.
func System(rng *rand.Rand, cfg Config) (*system.System, error) {
	if cfg.NumAgents < 1 || cfg.NumTrees < 1 || cfg.MaxDepth < 1 || cfg.MaxBranch < 2 {
		return nil, fmt.Errorf("gen: invalid config %+v", cfg)
	}
	// Pick per-agent observation levels once per system.
	obs := make([]observation, cfg.NumAgents)
	for i := range obs {
		if cfg.ObservationLevels {
			obs[i] = observation(rng.Intn(3))
		} else {
			obs[i] = obsFull
		}
	}
	trees := make([]*system.Tree, 0, cfg.NumTrees)
	for t := 0; t < cfg.NumTrees; t++ {
		tree, err := randomTree(rng, cfg, obs, "T"+strconv.Itoa(t))
		if err != nil {
			return nil, err
		}
		trees = append(trees, tree)
	}
	return system.New(cfg.NumAgents, trees...)
}

// MustSystem is System but panics on error.
func MustSystem(rng *rand.Rand, cfg Config) *system.System {
	sys, err := System(rng, cfg)
	if err != nil {
		panic(err)
	}
	return sys
}

func randomTree(rng *rand.Rand, cfg Config, obs []observation, name string) (*system.Tree, error) {
	mkState := func(history string, depth int) system.GlobalState {
		locals := make([]system.LocalState, cfg.NumAgents)
		for i := range locals {
			switch obs[i] {
			case obsFull:
				locals[i] = system.LocalState(fmt.Sprintf("a%d:%s", i, history))
			case obsTime:
				locals[i] = system.LocalState(fmt.Sprintf("a%d:t%d", i, depth))
			default:
				if cfg.Synchronous {
					locals[i] = system.LocalState(fmt.Sprintf("a%d:t%d", i, depth))
				} else {
					locals[i] = system.LocalState(fmt.Sprintf("a%d:-", i))
				}
			}
		}
		return system.GlobalState{Env: name + ":" + history, Locals: locals}
	}

	tb := system.NewTree(name, mkState("", 0))
	type frontierNode struct {
		id      system.NodeID
		history string
		depth   int
	}
	frontier := []frontierNode{{id: 0, history: "", depth: 0}}
	for len(frontier) > 0 {
		var next []frontierNode
		for _, fn := range frontier {
			if fn.depth >= cfg.MaxDepth {
				continue
			}
			// In synchronous mode every branch must reach full depth (so
			// local clocks stay meaningful); otherwise allow early halts.
			if !cfg.Synchronous && fn.depth > 0 && rng.Intn(4) == 0 {
				continue
			}
			k := 2 + rng.Intn(cfg.MaxBranch-1)
			probs := randomDistribution(rng, k)
			for c := 0; c < k; c++ {
				h := fn.history + string(rune('a'+c))
				id := tb.Child(fn.id, probs[c], mkState(h, fn.depth+1))
				next = append(next, frontierNode{id: id, history: h, depth: fn.depth + 1})
			}
		}
		frontier = next
	}
	return tb.Build()
}

// randomDistribution returns k positive rationals summing to one, with
// small denominators (weights 1..6 normalized).
func randomDistribution(rng *rand.Rand, k int) []rat.Rat {
	weights := make([]int64, k)
	var total int64
	for i := range weights {
		weights[i] = int64(rng.Intn(6) + 1)
		total += weights[i]
	}
	out := make([]rat.Rat, k)
	for i, w := range weights {
		out[i] = rat.New(w, total)
	}
	return out
}

// RandomFact returns a random fact over the system: a random subset of the
// global states (so the fact is always a fact about the global state). The
// states draw in the points' sorted order, so one seed gives one fact in
// every process.
func RandomFact(rng *rand.Rand, sys *system.System, name string) system.Fact {
	member := make(map[string]bool)
	for _, p := range sys.Points().Sorted() {
		key := p.State().Key()
		if _, seen := member[key]; !seen {
			member[key] = rng.Intn(2) == 0
		}
	}
	return system.NewFact(name, func(p system.Point) bool {
		return member[p.State().Key()]
	})
}

// RandomRunFact returns a random fact about the run: a random subset of
// each tree's runs.
func RandomRunFact(rng *rand.Rand, sys *system.System, name string) system.Fact {
	member := make(map[*system.Tree]map[int]bool)
	for _, t := range sys.Trees() {
		member[t] = make(map[int]bool, t.NumRuns())
		for r := 0; r < t.NumRuns(); r++ {
			member[t][r] = rng.Intn(2) == 0
		}
	}
	return system.NewFact(name, func(p system.Point) bool {
		return member[p.Tree][p.Run]
	})
}

// RandomPoint returns a uniformly random point of the system.
func RandomPoint(rng *rand.Rand, sys *system.System) system.Point {
	pts := sys.Points().Sorted()
	return pts[rng.Intn(len(pts))]
}
