package system

import (
	"fmt"
	"math/rand"
	"testing"

	"kpa/internal/rat"
)

// buildBinaryTree builds a complete binary tree of the given depth with one
// all-seeing agent.
func buildBinaryTree(depth int) *Tree {
	tb := NewTree("bench", gs("", "a:"))
	frontier := []NodeID{0}
	hist := []string{""}
	for d := 0; d < depth; d++ {
		var nf []NodeID
		var nh []string
		for i, id := range frontier {
			for _, c := range []string{"0", "1"} {
				h := hist[i] + c
				nf = append(nf, tb.Child(id, rat.Half, gs(h, "a:"+h)))
				nh = append(nh, h)
			}
		}
		frontier, hist = nf, nh
	}
	return tb.MustBuild()
}

func BenchmarkTreeBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = buildBinaryTree(8)
	}
}

// BenchmarkSystemIndices measures New plus the map layer it used to build
// eagerly: Points forces the point set and the by-state, by-time and
// by-node maps, and K forces the local-state index.
func BenchmarkSystemIndices(b *testing.B) {
	tree := buildBinaryTree(8)
	p := Point{Tree: tree, Run: 0, Time: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := New(1, tree)
		if err != nil {
			b.Fatal(err)
		}
		if sys.Points().Len() != sys.NumPoints() || !sys.K(0, p).Contains(p) {
			b.Fatal("map layer disagrees with the tree")
		}
	}
}

func BenchmarkKnowledgeQuery(b *testing.B) {
	sys := MustNew(1, buildBinaryTree(8))
	tree := sys.Trees()[0]
	p := Point{Tree: tree, Run: 0, Time: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sys.K(0, p)
	}
}

func BenchmarkRunSetOps(b *testing.B) {
	a := NewRunSet(4096)
	c := NewRunSet(4096)
	for i := 0; i < 4096; i += 3 {
		a.Add(i)
	}
	for i := 0; i < 4096; i += 5 {
		c.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Union(c).Intersect(a.Complement()).Len()
	}
}

func BenchmarkTreeProb(b *testing.B) {
	tree := buildBinaryTree(10)
	rs := tree.AllRuns()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tree.Prob(rs)
	}
}

// spreadSink keeps BenchmarkSpread's results live.
var spreadSink *DenseSet

// BenchmarkSpread times the K_i/Pr_i fan-out on kpabench-shaped cells
// (3 agents, 2,048 runs × 8 steps, 16 buckets: 113 cells over 16,384
// points) with 10%, 50% and 90% of the cells passing, drawn at random, at
// one and two workers.
func BenchmarkSpread(b *testing.B) {
	idx := broomSystem(b, 3, 2048, 8, 16).Index()
	cells := idx.Cells(0, 1)
	rng := rand.New(rand.NewSource(1))
	for _, pct := range []int{10, 50, 90} {
		pass := make([]bool, cells.NumBlocks())
		for k := range pass {
			pass[k] = rng.Intn(100) < pct
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("pass%d/w%d", pct, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					spreadSink = cells.Spread(pass, workers, nil)
				}
			})
		}
	}
}
