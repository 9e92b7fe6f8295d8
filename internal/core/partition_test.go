package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"kpa/internal/canon"
	"kpa/internal/gen"
	"kpa/internal/system"
)

// TestPartitionAssignmentContract checks the promise the dense engine takes
// on trust: for every canonical assignment, agent i and point c, c's block
// in Blocks(x, i, ·) is exactly Sample(i, c), and the partition does not
// depend on the worker count. The systems are the eight gen configurations
// of the dense-vs-reference differential — synchronous and asynchronous,
// one to three trees — plus the clockless coins and a broom large enough
// for the sharded numbering to split.
func TestPartitionAssignmentContract(t *testing.T) {
	cfgs := []gen.Config{
		gen.DefaultConfig(),
		{NumAgents: 3, NumTrees: 2, MaxDepth: 3, MaxBranch: 3, Synchronous: true, ObservationLevels: true},
		{NumAgents: 2, NumTrees: 3, MaxDepth: 4, MaxBranch: 2, Synchronous: true, ObservationLevels: true},
		{NumAgents: 1, NumTrees: 1, MaxDepth: 4, MaxBranch: 3, Synchronous: true, ObservationLevels: false},
		{NumAgents: 2, NumTrees: 2, MaxDepth: 3, MaxBranch: 3, Synchronous: false, ObservationLevels: true},
		{NumAgents: 3, NumTrees: 1, MaxDepth: 4, MaxBranch: 2, Synchronous: false, ObservationLevels: true},
		{NumAgents: 2, NumTrees: 2, MaxDepth: 4, MaxBranch: 3, Synchronous: false, ObservationLevels: false},
		{NumAgents: 1, NumTrees: 2, MaxDepth: 3, MaxBranch: 3, Synchronous: false, ObservationLevels: true},
	}
	systems := map[string]*system.System{
		"asynccoins3": canon.AsyncCoins(3),
		"broom":       gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 2, NumRuns: 64, RunLen: 4, Buckets: 4}),
	}
	for s, cfg := range cfgs {
		systems[fmt.Sprintf("gen%d", s)] = gen.MustSystem(rand.New(rand.NewSource(int64(1000+s))), cfg)
	}
	for name, sys := range systems {
		assignments := []SampleAssignment{Post(sys), Future(sys), Prior(sys)}
		for _, j := range sys.Agents() {
			assignments = append(assignments, Opponent(sys, j))
		}
		x := sys.Index()
		for _, sa := range assignments {
			pa, ok := sa.(PartitionAssignment)
			if !ok {
				t.Fatalf("%s: %s has no partition form", name, sa.Name())
			}
			for _, i := range sys.Agents() {
				label := fmt.Sprintf("%s/%s/agent %d", name, sa.Name(), i)
				p := pa.Blocks(x, i, 1)
				for id := 0; id < x.NumPoints(); id++ {
					c := x.PointAt(id)
					block := system.PointSet{}
					for _, d := range p.Members(p.BlockOf(id)) {
						block.Add(x.PointAt(int(d)))
					}
					if !block.Equal(sa.Sample(i, c)) {
						t.Fatalf("%s: block of %v is not S_ic", label, c)
					}
				}
				p4 := pa.Blocks(x, i, 4)
				same := p.NumBlocks() == p4.NumBlocks()
				for id := 0; same && id < x.NumPoints(); id++ {
					same = p.BlockOf(id) == p4.BlockOf(id)
				}
				if !same {
					t.Fatalf("%s: Blocks differs between 1 and 4 workers", label)
				}
			}
		}
	}
}

// TestPartitionAssignmentForeignIndex: an assignment bound to one system
// offers no partition over another system's index, so the engine falls
// back to asking it point by point.
func TestPartitionAssignmentForeignIndex(t *testing.T) {
	sys, other := canon.AsyncCoins(2), canon.AsyncCoins(2)
	if Post(sys).(PartitionAssignment).Blocks(other.Index(), 0, 1) != nil {
		t.Fatal("Blocks returned a partition over a foreign index")
	}
}

// TestAgentFreeBlocksBuiltOnce: fut's and prior's blocks do not depend on
// the agent, so one assignment gives every agent, at any worker count and
// from concurrent callers, the same partition. Two further assignments'
// own builds, with one and four workers, number the blocks identically.
func TestAgentFreeBlocksBuiltOnce(t *testing.T) {
	sys := gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 3, NumRuns: 64, RunLen: 4, Buckets: 4})
	x := sys.Index()
	for _, mk := range []func(*system.System) SampleAssignment{Future, Prior} {
		sa := mk(sys)
		got := make([]*system.Partition, 8)
		var wg sync.WaitGroup
		for k := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[k] = sa.(PartitionAssignment).Blocks(x, system.AgentID(k%3), 1+k%4)
			}()
		}
		wg.Wait()
		for k, p := range got {
			if p != got[0] {
				t.Fatalf("%s: caller %d (agent %d) got a partition of its own", sa.Name(), k, k%3)
			}
		}
		one := mk(sys).(PartitionAssignment).Blocks(x, 0, 1)
		four := mk(sys).(PartitionAssignment).Blocks(x, 2, 4)
		if one == four || one == got[0] || one.NumBlocks() != four.NumBlocks() {
			t.Fatalf("%s: separate assignments share a build, or their builds differ", sa.Name())
		}
		for id := 0; id < x.NumPoints(); id++ {
			if one.BlockOf(id) != four.BlockOf(id) {
				t.Fatalf("%s: builds with 1 and 4 workers number point %d differently", sa.Name(), id)
			}
		}
	}
}
