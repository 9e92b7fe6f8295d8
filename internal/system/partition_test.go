package system

import (
	"fmt"
	"math/rand"
	"testing"
)

// spreadPatterns returns the passing patterns TestSpreadMatchesPerPoint
// sweeps over p: none, one block, the first blocks up to n/2 members and
// up to n/2+1 members (exactly those counts when the blocks are single
// points, either side of Spread's empty-or-full threshold), every block,
// and a seeded random pattern.
func spreadPatterns(p *Partition, n int, rng *rand.Rand) map[string][]bool {
	prefix := func(members int) []bool {
		pass := make([]bool, p.NumBlocks())
		for k, sum := 0, 0; k < len(pass) && sum < members; k++ {
			pass[k] = true
			sum += len(p.Members(k))
		}
		return pass
	}
	one := make([]bool, p.NumBlocks())
	one[len(one)/2] = true
	random := make([]bool, p.NumBlocks())
	for k := range random {
		random[k] = rng.Intn(2) == 0
	}
	return map[string][]bool{
		"none":   make([]bool, p.NumBlocks()),
		"one":    one,
		"half":   prefix(n / 2),
		"half+1": prefix(n/2 + 1),
		"all":    prefix(n),
		"random": random,
	}
}

// TestSpreadMatchesPerPoint checks Spread, and its walk from either start
// and its sweep on their own, against the per-point definition
// pass[BlockOf(id)], over partitions of one point per block, a broom's
// cells and a single block, on a universe whose size is not a multiple of
// 64, at 1, 2, 3 and 8 workers.
func TestSpreadMatchesPerPoint(t *testing.T) {
	idx := broomSystem(t, 2, 40, 6, 4).Index()
	n := idx.NumPoints()
	if n%64 == 0 {
		t.Fatalf("%d points: the fixture must leave a partial last word", n)
	}
	parts := []struct {
		name string
		p    *Partition
	}{
		{"one point per block", PartitionBy(idx, 1, func(id int) int { return id })},
		{"cells", idx.Cells(1, 1)},
		{"single block", PartitionBy(idx, 1, func(int) int { return 0 })},
	}
	rng := rand.New(rand.NewSource(19))
	for _, part := range parts {
		p := part.p
		for name, pass := range spreadPatterns(p, n, rng) {
			want := idx.NewDense()
			for id := 0; id < n; id++ {
				if pass[p.BlockOf(id)] {
					want.add(id)
				}
			}
			check := func(path string, got *DenseSet) {
				t.Helper()
				if !got.Equal(want) {
					t.Fatalf("%s, %s passing: %s differs from pass[BlockOf(id)]", part.name, name, path)
				}
				if tail := got.bits[len(got.bits)-1] >> (n % 64); tail != 0 {
					t.Fatalf("%s, %s passing: %s set bits past NumPoints", part.name, name, path)
				}
			}
			check("walk from empty", p.spreadWalk(pass, false, nil))
			check("walk from full", p.spreadWalk(pass, true, nil))
			for _, workers := range []int{1, 2, 3, 8} {
				check(fmt.Sprintf("Spread(workers=%d)", workers), p.Spread(pass, workers, nil))
				check(fmt.Sprintf("sweep(workers=%d)", workers), p.spreadSweep(pass, workers, nil))
			}
		}
	}
}

// TestSpreadStops checks that a firing stop returns early from both paths:
// the walk polls every 16 blocks, and the sweep before it starts and every
// 4096 IDs.
func TestSpreadStops(t *testing.T) {
	idx := broomSystem(t, 1, 1000, 9, 4).Index()
	if n := idx.NumPoints(); n <= 4096 {
		t.Fatalf("%d points: the fixture must span more than one sweep stride", n)
	}
	p := PartitionBy(idx, 1, func(id int) int { return id })
	pass := make([]bool, p.NumBlocks())
	for k := range pass {
		pass[k] = true
	}
	// stopAt returns a stop that fires from its k-th call on, and the
	// count of its calls.
	stopAt := func(k int) (func() bool, *int) {
		calls := 0
		return func() bool { calls++; return calls >= k }, &calls
	}
	prefix := func(end int) *DenseSet {
		s := idx.NewDense()
		for id := 0; id < end; id++ {
			s.add(id)
		}
		return s
	}

	// The walk writes blocks 0–15, then stops at its second poll.
	stop, calls := stopAt(2)
	if got := p.spreadWalk(pass, false, stop); !got.Equal(prefix(16)) || *calls != 2 {
		t.Fatalf("walk: %d points written over %d polls, want 16 over 2", got.Len(), *calls)
	}
	// The sweep stops before it starts, then at its second stride.
	stop, calls = stopAt(1)
	if got := p.spreadSweep(pass, 1, stop); !got.IsEmpty() || *calls != 1 {
		t.Fatalf("sweep: %d points written over %d polls, want 0 over 1", got.Len(), *calls)
	}
	stop, calls = stopAt(3)
	if got := p.spreadSweep(pass, 1, stop); !got.Equal(prefix(4096)) || *calls != 3 {
		t.Fatalf("sweep: %d points written over %d polls, want 4096 over 3", got.Len(), *calls)
	}
}
