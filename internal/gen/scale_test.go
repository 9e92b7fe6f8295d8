package gen

import (
	"testing"

	"kpa/internal/system"
)

// TestScaleSystemValidatedByNew rebuilds a small scale configuration
// through system.New, exercising the full duplicate-global-state check that
// NewTrusted skips — the generator's uniqueness contract is what makes
// NewTrusted safe, so it must hold on representative shapes.
func TestScaleSystemValidatedByNew(t *testing.T) {
	cfg := ScaleConfig{NumAgents: 3, NumRuns: 24, RunLen: 5, Buckets: 4}
	sys := MustScaleSystem(cfg)
	if _, err := system.New(cfg.NumAgents, sys.Trees()...); err != nil {
		t.Fatalf("system.New rejects the scale tree: %v", err)
	}
}

func TestScaleSystemShape(t *testing.T) {
	cfg := ScaleConfig{NumAgents: 2, NumRuns: 16, RunLen: 4, Buckets: 4}
	sys := MustScaleSystem(cfg)

	if got, want := sys.NumPoints(), cfg.NumPoints(); got != want {
		t.Fatalf("NumPoints = %d, want %d", got, want)
	}
	tree := sys.Trees()[0]
	if tree.NumRuns() != cfg.NumRuns {
		t.Fatalf("NumRuns = %d, want %d", tree.NumRuns(), cfg.NumRuns)
	}
	for r := 0; r < tree.NumRuns(); r++ {
		if tree.RunLen(r) != cfg.RunLen {
			t.Fatalf("run %d has length %d, want %d", r, tree.RunLen(r), cfg.RunLen)
		}
	}
	if !sys.IsSynchronous() {
		t.Fatal("scale system is not synchronous")
	}
	// Uniform run distribution: every run is equiprobable and the whole
	// tree sums to one.
	p0 := tree.RunProb(0)
	for r := 1; r < tree.NumRuns(); r++ {
		if !tree.RunProb(r).Equal(p0) {
			t.Fatalf("run %d probability %s differs from run 0's %s", r, tree.RunProb(r), p0)
		}
	}
	if !tree.Prob(tree.AllRuns()).IsOne() {
		t.Fatalf("total probability %s, want 1", tree.Prob(tree.AllRuns()))
	}
	// Cell structure: agent i has one root cell plus Buckets cells per
	// later time step.
	idx := sys.Index()
	for i := 0; i < cfg.NumAgents; i++ {
		cells := idx.Cells(system.AgentID(i), 1)
		want := 1 + (cfg.RunLen-1)*cfg.Buckets
		if cells.NumBlocks() != want {
			t.Fatalf("agent %d has %d cells, want %d", i, cells.NumBlocks(), want)
		}
	}
	// Agents observe different buckets: agent 0 distinguishes runs 0 and 1
	// at time 1, agent 1 does not (they share bucket 0 of the second digit).
	p01 := system.Point{Tree: tree, Run: 0, Time: 1}
	p11 := system.Point{Tree: tree, Run: 1, Time: 1}
	if p01.Local(0) == p11.Local(0) {
		t.Fatal("agent 0 cannot distinguish runs 0 and 1 at time 1")
	}
	if p01.Local(1) != p11.Local(1) {
		t.Fatal("agent 1 distinguishes runs 0 and 1 at time 1")
	}
}

func TestScaleFact(t *testing.T) {
	cfg := ScaleConfig{NumAgents: 2, NumRuns: 8, RunLen: 3, Buckets: 2}
	sys := MustScaleSystem(cfg)
	f := ScaleFact("p", 3)
	tree := sys.Trees()[0]
	holds, fails := 0, 0
	for r := 0; r < tree.NumRuns(); r++ {
		for k := 0; k < cfg.RunLen; k++ {
			p := system.Point{Tree: tree, Run: r, Time: k}
			if f.Holds(p) != ((r+k)%3 != 0) {
				t.Fatalf("ScaleFact at run %d time %d: got %v", r, k, f.Holds(p))
			}
			if f.Holds(p) {
				holds++
			} else {
				fails++
			}
		}
	}
	if holds == 0 || fails == 0 {
		t.Fatalf("degenerate fact: holds at %d points, fails at %d", holds, fails)
	}
}

func TestScaleSystemRejectsBadConfig(t *testing.T) {
	bad := []ScaleConfig{
		{NumAgents: 0, NumRuns: 4, RunLen: 3, Buckets: 2},
		{NumAgents: 1, NumRuns: 1, RunLen: 3, Buckets: 2},
		{NumAgents: 1, NumRuns: 4, RunLen: 1, Buckets: 2},
		{NumAgents: 1, NumRuns: 4, RunLen: 3, Buckets: 1},
	}
	for _, cfg := range bad {
		if _, err := ScaleSystem(cfg); err == nil {
			t.Fatalf("ScaleSystem(%+v) succeeded, want error", cfg)
		}
	}
}
