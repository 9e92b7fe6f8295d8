package gen

import (
	"testing"

	"kpa/internal/system"
)

// TestChainSystemShape checks the chain fixture: it passes system.New's
// duplicate-state check, has two points per run, is synchronous, and at
// time 1 agent 1 pairs runs {2k, 2k+1} while agent 2 pairs {2k−1, 2k}.
// ChainFact fails only at (run 0, time 1).
func TestChainSystemShape(t *testing.T) {
	const runs = 9
	sys := MustChainSystem(runs)
	if _, err := system.New(2, sys.Trees()...); err != nil {
		t.Fatalf("system.New rejects the chain tree: %v", err)
	}
	if sys.NumPoints() != 2*runs || !sys.IsSynchronous() {
		t.Fatalf("%d points, synchronous %v: want %d, true", sys.NumPoints(), sys.IsSynchronous(), 2*runs)
	}
	tree := sys.Trees()[0]
	at := func(r int) system.Point { return system.Point{Tree: tree, Run: r, Time: 1} }
	for r := 0; r+1 < runs; r++ {
		same1 := at(r).Local(0) == at(r+1).Local(0)
		same2 := at(r).Local(1) == at(r+1).Local(1)
		if same1 != (r%2 == 0) || same2 != (r%2 == 1) {
			t.Fatalf("runs %d and %d: agent 1 alike %v, agent 2 alike %v", r, r+1, same1, same2)
		}
	}
	fact := ChainFact("p")
	for p := range sys.Points() {
		if fact.Holds(p) != (p.Run != 0 || p.Time != 1) {
			t.Fatalf("ChainFact at %v = %v", p, fact.Holds(p))
		}
	}
	if _, err := ChainSystem(1); err == nil {
		t.Fatal("a one-run chain was accepted")
	}
}
