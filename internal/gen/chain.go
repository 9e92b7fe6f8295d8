package gen

import (
	"fmt"
	"strconv"

	"kpa/internal/rat"
	"kpa/internal/system"
)

// ChainSystem builds the common-knowledge chain: one tree of runs
// equiprobable two-point runs over two agents. At time 0 both agents see
// the root; at time 1 of run r agent 1 sees ⌊r/2⌋ and agent 2 sees
// ⌊(r+1)/2⌋, so the time-1 cells alternate between the agents and link
// every run into one chain. With ChainFact failing only at (run 0, time 1),
// the fixpoint X = E_G(p ∧ X) strips one run per round, so computing C_G p
// by rounds costs runs rounds of a sweep over all 2·runs points, while the
// component form costs one sweep. The system is assembled with
// system.NewTrusted: every environment is unique by construction.
func ChainSystem(runs int) (*system.System, error) {
	if runs < 2 {
		return nil, fmt.Errorf("gen: chain needs at least 2 runs, got %d", runs)
	}
	tb := system.NewTree("chain", system.NewGlobalState("root", "a1:root", "a2:root"))
	tb.Grow(runs)
	branch := rat.New(1, int64(runs))
	for r := 0; r < runs; r++ {
		tb.Child(0, branch, system.NewGlobalState("r"+strconv.Itoa(r),
			system.LocalState("a1:"+strconv.Itoa(r/2)),
			system.LocalState("a2:"+strconv.Itoa((r+1)/2))))
	}
	tree, err := tb.Build()
	if err != nil {
		return nil, err
	}
	return system.NewTrusted(2, tree)
}

// MustChainSystem is ChainSystem but panics on error.
func MustChainSystem(runs int) *system.System {
	sys, err := ChainSystem(runs)
	if err != nil {
		panic(err)
	}
	return sys
}

// ChainFact returns the chain's proposition: it holds everywhere but at
// (run 0, time 1). It is a pure function of the point, safe for the
// engine's sharded scans.
func ChainFact(name string) system.Fact {
	return system.NewFact(name, func(p system.Point) bool { return p.Run != 0 || p.Time != 1 })
}
