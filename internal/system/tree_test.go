package system

import (
	"testing"

	"kpa/internal/rat"
)

func gs(env string, locals ...string) GlobalState {
	ls := make([]LocalState, len(locals))
	for i, l := range locals {
		ls[i] = LocalState(l)
	}
	return GlobalState{Env: env, Locals: ls}
}

// coinTree builds a one-toss fair-coin tree with a single agent that sees
// the outcome.
func coinTree(t *testing.T) *Tree {
	t.Helper()
	tb := NewTree("coin", gs("start", "a:start"))
	tb.Child(0, rat.Half, gs("h", "a:h"))
	tb.Child(0, rat.Half, gs("t", "a:t"))
	tree, err := tb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tree
}

func TestGlobalStateKeyAndEqual(t *testing.T) {
	a := gs("e", "x", "y")
	b := gs("e", "x", "y")
	c := gs("e", "xy", "") // would collide under naive concatenation
	d := gs("e", "x", "z")
	if !a.Equal(b) || a.Key() != b.Key() {
		t.Error("equal states disagree")
	}
	if a.Equal(c) || a.Key() == c.Key() {
		t.Error("key collision between distinct states")
	}
	if a.Equal(d) || a.Key() == d.Key() {
		t.Error("distinct locals treated equal")
	}
	if a.Equal(gs("f", "x", "y")) {
		t.Error("distinct env treated equal")
	}
	if a.Equal(gs("e", "x")) {
		t.Error("different arity treated equal")
	}
	if a.Local(1) != "y" || a.NumAgents() != 2 {
		t.Error("Local/NumAgents wrong")
	}
}

func TestTreeBuildValidation(t *testing.T) {
	t.Run("probabilities must sum to one", func(t *testing.T) {
		tb := NewTree("bad", gs("s", "a"))
		tb.Child(0, rat.Half, gs("x", "a"))
		tb.Child(0, rat.New(1, 3), gs("y", "a"))
		if _, err := tb.Build(); err == nil {
			t.Fatal("Build accepted probabilities summing to 5/6")
		}
	})
	t.Run("probabilities must be positive", func(t *testing.T) {
		tb := NewTree("bad", gs("s", "a"))
		tb.Child(0, rat.Zero, gs("x", "a"))
		tb.Child(0, rat.One, gs("y", "a"))
		if _, err := tb.Build(); err == nil {
			t.Fatal("Build accepted a zero transition probability")
		}
	})
	t.Run("single node tree", func(t *testing.T) {
		tb := NewTree("leaf", gs("s", "a"))
		tree, err := tb.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if tree.NumRuns() != 1 || tree.RunLen(0) != 1 || !tree.RunProb(0).IsOne() {
			t.Error("single-node tree has wrong runs")
		}
	})
}

func TestCoinTreeRuns(t *testing.T) {
	tree := coinTree(t)
	if tree.NumRuns() != 2 {
		t.Fatalf("NumRuns = %d, want 2", tree.NumRuns())
	}
	for r := 0; r < 2; r++ {
		if !tree.RunProb(r).Equal(rat.Half) {
			t.Errorf("run %d prob = %s, want 1/2", r, tree.RunProb(r))
		}
		if tree.RunLen(r) != 2 {
			t.Errorf("run %d len = %d, want 2", r, tree.RunLen(r))
		}
	}
	if tree.Depth() != 1 {
		t.Errorf("Depth = %d, want 1", tree.Depth())
	}
	if tree.Root().Time != 0 || tree.Root().Parent != -1 {
		t.Error("root malformed")
	}
	total := tree.Prob(tree.AllRuns())
	if !total.IsOne() {
		t.Errorf("total run probability = %s, want 1", total)
	}
}

func TestDeepTreeProbabilitiesMultiply(t *testing.T) {
	// Figure 1 shape: root →(1/2) l, (1/2) r; l →(1/2,1/2); r →(1/4,3/4).
	tb := NewTree("fig1", gs("s0", "a0"))
	l := tb.Child(0, rat.Half, gs("s1", "a1"))
	r := tb.Child(0, rat.Half, gs("s2", "a2"))
	tb.Child(l, rat.Half, gs("s3", "a3"))
	tb.Child(l, rat.Half, gs("s4", "a4"))
	tb.Child(r, rat.New(1, 4), gs("s5", "a5"))
	tb.Child(r, rat.New(3, 4), gs("s6", "a6"))
	tree := tb.MustBuild()
	want := []rat.Rat{rat.New(1, 4), rat.New(1, 4), rat.New(1, 8), rat.New(3, 8)}
	if tree.NumRuns() != len(want) {
		t.Fatalf("NumRuns = %d, want %d", tree.NumRuns(), len(want))
	}
	for i, w := range want {
		if !tree.RunProb(i).Equal(w) {
			t.Errorf("run %d prob = %s, want %s", i, tree.RunProb(i), w)
		}
	}
	if !tree.Prob(tree.AllRuns()).IsOne() {
		t.Error("run probabilities do not sum to 1")
	}
	w, den, ok := tree.RunWeights()
	if !ok || den != 8 || len(w) != 4 || w[0] != 2 || w[1] != 2 || w[2] != 1 || w[3] != 3 {
		t.Errorf("RunWeights = %v over %d, %v; want [2 2 1 3] over 8", w, den, ok)
	}
}

// TestRunWeightsOverflowFallsBack builds a chain of five branchings whose
// labels have distinct prime denominators near 2^16: every run probability
// has the ~80-bit product as its denominator, so the tree has no integer
// weights and Prob must still be exact.
func TestRunWeightsOverflowFallsBack(t *testing.T) {
	primes := []int64{65521, 65519, 65497, 65479, 65449}
	tb := NewTree("primes", gs("s", "a"))
	cur := NodeID(0)
	for k, p := range primes {
		name := string(rune('a' + k))
		tb.Child(cur, rat.New(p-1, p), gs(name+"0", "a"))
		cur = tb.Child(cur, rat.New(1, p), gs(name+"1", "a"))
	}
	tree := tb.MustBuild()
	if _, _, ok := tree.RunWeights(); ok {
		t.Fatal("RunWeights reported integer weights over a >62-bit denominator")
	}
	last := tree.NumRuns() - 1
	want := rat.One
	for _, p := range primes {
		want = want.Mul(rat.New(1, p))
	}
	rs := NewRunSet(tree.NumRuns())
	rs.Add(last)
	if got := tree.Prob(rs); !got.Equal(want) {
		t.Errorf("Prob(last run) = %s, want %s", got, want)
	}
	if !tree.Prob(tree.AllRuns()).IsOne() {
		t.Error("run probabilities do not sum to 1 without integer weights")
	}
}

func TestRunsThroughNode(t *testing.T) {
	tb := NewTree("x", gs("s0", "a0"))
	l := tb.Child(0, rat.Half, gs("s1", "a1"))
	tb.Child(0, rat.Half, gs("s2", "a2"))
	tb.Child(l, rat.Half, gs("s3", "a3"))
	tb.Child(l, rat.Half, gs("s4", "a4"))
	tree := tb.MustBuild()

	rootRuns := tree.RunsThroughNode(0)
	if rootRuns.Len() != tree.NumRuns() {
		t.Errorf("runs through root = %d, want all %d", rootRuns.Len(), tree.NumRuns())
	}
	lRuns := tree.RunsThroughNode(l)
	if lRuns.Len() != 2 {
		t.Errorf("runs through l = %d, want 2", lRuns.Len())
	}
	if !tree.Prob(lRuns).Equal(rat.Half) {
		t.Errorf("P(runs through l) = %s, want 1/2", tree.Prob(lRuns))
	}
}

func TestUnbalancedRunLengths(t *testing.T) {
	// A tree where one branch halts early: runs of different lengths.
	tb := NewTree("x", gs("s0", "a0"))
	tb.Child(0, rat.Half, gs("halt", "a-halt"))
	c := tb.Child(0, rat.Half, gs("go", "a-go"))
	tb.Child(c, rat.One, gs("end", "a-end"))
	tree := tb.MustBuild()
	if tree.NumRuns() != 2 {
		t.Fatalf("NumRuns = %d", tree.NumRuns())
	}
	lens := map[int]bool{tree.RunLen(0): true, tree.RunLen(1): true}
	if !lens[2] || !lens[3] {
		t.Errorf("run lengths = %v, want {2,3}", lens)
	}
	if !tree.Prob(tree.AllRuns()).IsOne() {
		t.Error("probabilities do not sum to 1")
	}
}

func TestRelabelAndPathTo(t *testing.T) {
	tb := NewTree("rl", gs("s0", "a0"))
	l := tb.Child(0, rat.Half, gs("s1", "a1"))
	tb.Child(0, rat.Half, gs("s2", "a2"))
	leaf := tb.Child(l, rat.One, gs("s3", "a3"))
	tree := tb.MustBuild()

	path := tree.PathTo(leaf)
	if len(path) != 2 || path[0].Parent != 0 || path[1].Parent != l {
		t.Fatalf("PathTo = %v", path)
	}
	if len(tree.PathTo(0)) != 0 {
		t.Error("PathTo(root) should be empty")
	}

	relabeled, err := tree.Relabel(func(e EdgeRef) (rat.Rat, bool) {
		if e.Parent == 0 && e.Index == 0 {
			return rat.New(1, 3), true
		}
		if e.Parent == 0 && e.Index == 1 {
			return rat.New(2, 3), true
		}
		return rat.Rat{}, false // keep
	})
	if err != nil {
		t.Fatalf("Relabel: %v", err)
	}
	if !relabeled.RunProb(0).Equal(rat.New(1, 3)) {
		t.Errorf("relabeled run 0 prob = %s", relabeled.RunProb(0))
	}
	// Original untouched.
	if !tree.RunProb(0).Equal(rat.Half) {
		t.Error("Relabel mutated the original")
	}
	// Invalid relabelings rejected.
	if _, err := tree.Relabel(func(EdgeRef) (rat.Rat, bool) {
		return rat.New(-1, 2), true
	}); err == nil {
		t.Error("accepted negative probability")
	}
	// Run accessor.
	if got := tree.Run(0); len(got) != 3 || got[0] != 0 {
		t.Errorf("Run(0) = %v", got)
	}
}

func TestGlobalStateConstructors(t *testing.T) {
	g := NewGlobalState("e", "x", "y")
	if g.Env != "e" || g.NumAgents() != 2 || g.Local(1) != "y" {
		t.Errorf("NewGlobalState = %+v", g)
	}
	// The locals are copied.
	ls := []LocalState{"a"}
	g2 := NewGlobalState("e", ls...)
	ls[0] = "mutated"
	if g2.Local(0) != "a" {
		t.Error("NewGlobalState aliased its argument")
	}
}
