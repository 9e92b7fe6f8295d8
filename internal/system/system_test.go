package system

import (
	"strings"
	"sync"
	"testing"

	"kpa/internal/rat"
)

// twoAgentCoin builds a synchronous two-agent coin system: agent 0 sees the
// outcome at time 1, agent 1 sees only the clock.
func twoAgentCoin(t *testing.T) *System {
	t.Helper()
	tb := NewTree("coin", gs("start", "a:t0", "b:t0"))
	tb.Child(0, rat.Half, gs("h", "a:h", "b:t1"))
	tb.Child(0, rat.Half, gs("t", "a:t", "b:t1"))
	sys, err := New(2, tb.MustBuild())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sys
}

func TestNewValidation(t *testing.T) {
	tree := func() *Tree {
		tb := NewTree("x", gs("s", "a"))
		return tb.MustBuild()
	}
	t.Run("needs agents", func(t *testing.T) {
		if _, err := New(0, tree()); err == nil {
			t.Error("accepted zero agents")
		}
	})
	t.Run("needs trees", func(t *testing.T) {
		if _, err := New(1); err == nil {
			t.Error("accepted no trees")
		}
	})
	t.Run("agent arity mismatch", func(t *testing.T) {
		if _, err := New(2, tree()); err == nil {
			t.Error("accepted tree with one local state for a 2-agent system")
		}
	})
	t.Run("duplicate adversary names", func(t *testing.T) {
		tb1 := NewTree("dup", gs("s1", "a"))
		tb2 := NewTree("dup", gs("s2", "a"))
		if _, err := New(1, tb1.MustBuild(), tb2.MustBuild()); err == nil {
			t.Error("accepted duplicate adversary names")
		}
	})
	t.Run("duplicate global states across trees", func(t *testing.T) {
		tb1 := NewTree("t1", gs("same", "a"))
		tb2 := NewTree("t2", gs("same", "a"))
		if _, err := New(1, tb1.MustBuild(), tb2.MustBuild()); err == nil {
			t.Error("accepted duplicated global state (violates the technical assumption)")
		}
	})
	t.Run("shared environment", func(t *testing.T) {
		// Three children share the root's env; the third repeats the
		// second's locals, which is the duplicate.
		tb := NewTree("t", gs("e", "r"))
		tb.Child(0, rat.New(1, 3), gs("e", "a"))
		tb.Child(0, rat.New(1, 3), gs("e", "b"))
		tb.Child(0, rat.New(1, 3), gs("e", "a"))
		_, err := New(1, tb.MustBuild())
		if err == nil || !strings.Contains(err.Error(), "(env=e, p1=a) appears twice") {
			t.Errorf("New = %v, want the repeated (e, a) state reported", err)
		}
		tb = NewTree("t", gs("e", "r"))
		tb.Child(0, rat.Half, gs("e", "a"))
		tb.Child(0, rat.Half, gs("e", "b"))
		if _, err := New(1, tb.MustBuild()); err != nil {
			t.Errorf("New rejects distinct states sharing an env: %v", err)
		}
	})
}

func TestPointsEnumeration(t *testing.T) {
	sys := twoAgentCoin(t)
	// Two runs × two times = 4 points.
	if got := sys.Points().Len(); got != 4 {
		t.Errorf("Points = %d, want 4", got)
	}
	tree := sys.Trees()[0]
	if got := len(sys.PointsAtTime(tree, 0)); got != 2 {
		t.Errorf("points at time 0 = %d, want 2 (one per run through the root)", got)
	}
	if got := len(sys.PointsAtTime(tree, 1)); got != 2 {
		t.Errorf("points at time 1 = %d, want 2", got)
	}
	// The root node carries two points (both runs pass through it).
	if got := len(sys.PointsOnNode(tree, 0)); got != 2 {
		t.Errorf("points on root = %d, want 2", got)
	}
}

func TestPointAccessors(t *testing.T) {
	sys := twoAgentCoin(t)
	tree := sys.Trees()[0]
	p := Point{Tree: tree, Run: 0, Time: 1}
	if !p.IsValid() {
		t.Fatal("valid point reported invalid")
	}
	if p.Env() != "h" && p.Env() != "t" {
		t.Errorf("Env = %q", p.Env())
	}
	if p.Local(1) != "b:t1" {
		t.Errorf("Local(1) = %q", p.Local(1))
	}
	if _, ok := p.Next(); ok {
		t.Error("Next at end of run should not exist")
	}
	p0 := Point{Tree: tree, Run: 0, Time: 0}
	nxt, ok := p0.Next()
	if !ok || nxt.Time != 1 || nxt.Run != 0 {
		t.Error("Next wrong")
	}
	if (Point{Tree: tree, Run: 5, Time: 0}).IsValid() {
		t.Error("invalid run reported valid")
	}
	if (Point{Tree: tree, Run: 0, Time: 9}).IsValid() {
		t.Error("invalid time reported valid")
	}
}

func TestSameGlobalState(t *testing.T) {
	sys := twoAgentCoin(t)
	tree := sys.Trees()[0]
	a := Point{Tree: tree, Run: 0, Time: 0}
	b := Point{Tree: tree, Run: 1, Time: 0}
	if !a.SameGlobalState(b) {
		t.Error("both runs pass through the root: same global state expected")
	}
	c := Point{Tree: tree, Run: 0, Time: 1}
	d := Point{Tree: tree, Run: 1, Time: 1}
	if c.SameGlobalState(d) {
		t.Error("distinct leaves reported same global state")
	}
}

func TestKnowledgeRelation(t *testing.T) {
	sys := twoAgentCoin(t)
	tree := sys.Trees()[0]
	h1 := Point{Tree: tree, Run: 0, Time: 1}

	// Agent 0 saw the outcome: K_0(h1) = {h1}.
	k0 := sys.K(0, h1)
	if k0.Len() != 1 || !k0.Contains(h1) {
		t.Errorf("K_0(h,1) = %v, want {that point}", k0.Sorted())
	}
	// Agent 1 sees only the clock: K_1(h1) = both time-1 points.
	k1 := sys.K(1, h1)
	if k1.Len() != 2 {
		t.Errorf("K_1(h,1) has %d points, want 2", k1.Len())
	}
	for p := range k1 {
		if p.Time != 1 {
			t.Errorf("K_1 contains non-time-1 point %v", p)
		}
	}
	// Reflexivity: c ∈ K_i(c) for every agent and point.
	for p := range sys.Points() {
		for _, i := range sys.Agents() {
			if !sys.K(i, p).Contains(p) {
				t.Errorf("K_%d(%v) does not contain the point itself", i, p)
			}
		}
	}
}

func TestKInTree(t *testing.T) {
	// Two trees (adversary choices); agent 1 cannot tell them apart.
	mk := func(name, outcome string) *Tree {
		tb := NewTree(name, gs(name+":start", "a:"+name, "b:t0"))
		tb.Child(0, rat.One, gs(name+":"+outcome, "a:"+name+outcome, "b:t1"))
		return tb.MustBuild()
	}
	sys := MustNew(2, mk("A", "x"), mk("B", "y"))
	tA := sys.TreeByAdversary("A")
	c := Point{Tree: tA, Run: 0, Time: 1}
	// K_1(c) spans both trees; KInTree only tree A.
	if got := sys.K(1, c).Len(); got != 2 {
		t.Errorf("K_1 spans %d points, want 2", got)
	}
	kt := sys.KInTree(1, c)
	if kt.Len() != 1 {
		t.Errorf("KInTree has %d points, want 1", kt.Len())
	}
	if tr := kt.SingleTree(); tr != tA {
		t.Errorf("KInTree returned points outside T(c)")
	}
}

func TestKnows(t *testing.T) {
	sys := twoAgentCoin(t)
	tree := sys.Trees()[0]
	heads := EnvFact("heads", func(e string) bool { return e == "h" })
	var hPoint, tPoint Point
	for _, p := range sys.PointsAtTime(tree, 1) {
		if p.Env() == "h" {
			hPoint = p
		} else {
			tPoint = p
		}
	}
	if !sys.Knows(0, hPoint, heads) {
		t.Error("agent 0 saw heads but does not know it")
	}
	if sys.Knows(0, tPoint, heads) {
		t.Error("agent 0 knows heads at the tails point")
	}
	if sys.Knows(1, hPoint, heads) {
		t.Error("blind agent 1 knows heads")
	}
	// Knowledge of tautologies.
	if !sys.Knows(1, hPoint, TrueFact) {
		t.Error("agent does not know true")
	}
}

func TestIsSynchronous(t *testing.T) {
	if sys := twoAgentCoin(t); !sys.IsSynchronous() {
		t.Error("clocked coin system should be synchronous")
	}
	// Remove agent b's clock: asynchronous.
	tb := NewTree("coin", gs("start", "a:t0", "b:idle"))
	tb.Child(0, rat.Half, gs("h", "a:h", "b:idle"))
	tb.Child(0, rat.Half, gs("t", "a:t", "b:idle"))
	sys := MustNew(2, tb.MustBuild())
	if sys.IsSynchronous() {
		t.Error("clockless system reported synchronous")
	}
	i, p, q, found := sys.SameLocalTimes()
	if !found || i != 1 || p.Time == q.Time {
		t.Errorf("SameLocalTimes = (%v,%v,%v,%v)", i, p, q, found)
	}
	// Cached value is stable.
	if sys.IsSynchronous() {
		t.Error("cached synchrony changed")
	}
}

// TestIsSynchronousConcurrent calls IsSynchronous on one shared system
// from 8 goroutines at once: a System may be shared freely, so the
// cached answer must be computed and published race-free (run under
// -race).
func TestIsSynchronousConcurrent(t *testing.T) {
	tb := NewTree("coin", gs("start", "a:t0", "b:idle"))
	tb.Child(0, rat.Half, gs("h", "a:h", "b:idle"))
	tb.Child(0, rat.Half, gs("t", "a:t", "b:idle"))
	for _, tc := range []struct {
		sys  *System
		want bool
	}{{twoAgentCoin(t), true}, {MustNew(2, tb.MustBuild()), false}} {
		got := make([]bool, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g] = tc.sys.IsSynchronous()
			}(g)
		}
		wg.Wait()
		for g, v := range got {
			if v != tc.want {
				t.Errorf("goroutine %d: IsSynchronous = %v, want %v", g, v, tc.want)
			}
		}
	}
}

func TestPointSetOps(t *testing.T) {
	sys := twoAgentCoin(t)
	tree := sys.Trees()[0]
	all := sys.Points()
	t1 := all.Filter(func(p Point) bool { return p.Time == 1 })
	t0 := all.Minus(t1)
	if t1.Len() != 2 || t0.Len() != 2 {
		t.Fatalf("partition sizes %d/%d", t0.Len(), t1.Len())
	}
	if !t0.Union(t1).Equal(all) {
		t.Error("union of partition != all")
	}
	if !t0.Intersect(t1).IsEmpty() {
		t.Error("partition cells intersect")
	}
	if !t1.SubsetOf(all) || all.SubsetOf(t1) {
		t.Error("SubsetOf wrong")
	}
	if all.SingleTree() != tree {
		t.Error("SingleTree on one-tree system failed")
	}
	rs := t1.RunsThrough(tree)
	if rs.Len() != 2 {
		t.Errorf("RunsThrough(t1) = %s, want both runs", rs)
	}
	proj := Proj(tree, runSetFrom(2, 0), all)
	if proj.Len() != 2 {
		t.Errorf("Proj onto run 0 = %d points, want 2", proj.Len())
	}
	for p := range proj {
		if p.Run != 0 {
			t.Errorf("Proj leaked run %d", p.Run)
		}
	}
}

func TestPointSetSorted(t *testing.T) {
	sys := twoAgentCoin(t)
	pts := sys.Points().Sorted()
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		if a.Run > b.Run || (a.Run == b.Run && a.Time >= b.Time) {
			t.Fatalf("Sorted out of order: %v before %v", a, b)
		}
	}
}

func TestIsStateGenerated(t *testing.T) {
	sys := twoAgentCoin(t)
	all := sys.Points()
	time0 := all.Filter(func(p Point) bool { return p.Time == 0 })
	if !time0.IsStateGenerated(all) {
		t.Error("time-0 points (one node, both runs) should be state generated")
	}
	// A single time-0 point misses its same-node sibling.
	var one Point
	for p := range time0 {
		one = p
		break
	}
	if NewPointSet(one).IsStateGenerated(all) {
		t.Error("half a node's points reported state generated")
	}
}

func TestFactClassifiers(t *testing.T) {
	sys := twoAgentCoin(t)
	heads := EnvFact("heads", func(e string) bool { return e == "h" })
	if !IsFactAboutState(sys, heads) {
		t.Error("env fact should be a fact about the global state")
	}
	if IsFactAboutRun(sys, heads) {
		t.Error("heads is false at time 0 and true at (h,1): not a fact about the run")
	}
	tree := sys.Trees()[0]
	willHeads := NewFact("willHeads", func(p Point) bool {
		leaf := tree.NodeAt(p.Run, tree.RunLen(p.Run)-1)
		return leaf.State.Env == "h"
	})
	if !IsFactAboutRun(sys, willHeads) {
		t.Error("eventually-heads should be a fact about the run")
	}
	if IsFactAboutState(sys, willHeads) {
		t.Error("eventually-heads differs on the two time-0 points sharing the root state")
	}
}

func TestFactCombinators(t *testing.T) {
	sys := twoAgentCoin(t)
	tree := sys.Trees()[0]
	h := Point{Tree: tree, Run: 0, Time: 1}
	heads := EnvFact("heads", func(e string) bool { return e == "h" })
	isH := h.Env() == "h"
	if Not(heads).Holds(h) == heads.Holds(h) {
		t.Error("Not wrong")
	}
	if AndFact(heads, TrueFact).Holds(h) != isH {
		t.Error("AndFact wrong")
	}
	if AndFact(heads, FalseFact).Holds(h) {
		t.Error("AndFact with false wrong")
	}
	at := AtState(h.State())
	if !at.Holds(h) {
		t.Error("AtState misses its own point")
	}
	other := Point{Tree: tree, Run: 1, Time: 1}
	if at.Holds(other) {
		t.Error("AtState holds at a different state")
	}
	set := NewPointSet(h)
	if !FactOfSet("s", set).Holds(h) || FactOfSet("s", set).Holds(other) {
		t.Error("FactOfSet wrong")
	}
	lf := LocalFact("a-saw-h", 0, func(l LocalState) bool { return l == "a:h" })
	if lf.Holds(h) != isH {
		t.Error("LocalFact wrong")
	}
	if PointsWhere(sys.Points(), heads).Len() != 1 {
		t.Error("PointsWhere wrong")
	}
}

func TestDOT(t *testing.T) {
	sys := twoAgentCoin(t)
	dot := sys.Trees()[0].DOT()
	for _, want := range []string{"digraph", "n0 ->", "1/2", "env: h", "rankdir"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
	all := SystemDOT(sys)
	if !strings.Contains(all, "digraph") {
		t.Error("SystemDOT empty")
	}
	// Control bytes and quotes are escaped.
	tb := NewTree("q", gs("has\"quote\x01ctl", "a"))
	tree := tb.MustBuild()
	d := tree.DOT()
	if strings.ContainsRune(d, '\x01') {
		t.Error("control byte leaked into DOT")
	}
	if !strings.Contains(d, `\"`) {
		t.Error("quote not escaped")
	}
}

func TestSystemAccessors(t *testing.T) {
	sys := twoAgentCoin(t)
	tree := sys.Trees()[0]
	if sys.NumAgents() != 2 {
		t.Errorf("NumAgents = %d", sys.NumAgents())
	}
	if got := sys.PointsOfTree(tree).Len(); got != 4 {
		t.Errorf("PointsOfTree = %d", got)
	}
	root := tree.Root().State
	if got := len(sys.PointsWithState(root)); got != 2 {
		t.Errorf("PointsWithState(root) = %d, want 2 (both runs)", got)
	}
	p := Point{Tree: tree, Run: 1, Time: 0}
	if s := p.String(); !strings.Contains(s, "coin") || !strings.Contains(s, "r1") {
		t.Errorf("Point.String = %q", s)
	}
	// PointSet.Remove.
	set := NewPointSet(p)
	set.Remove(p)
	if !set.IsEmpty() {
		t.Error("Remove failed")
	}
	// StateFact.
	sf := StateFact("isRoot", func(g GlobalState) bool { return g.Equal(root) })
	if !sf.Holds(p) {
		t.Error("StateFact wrong")
	}
	if sf.Holds(Point{Tree: tree, Run: 0, Time: 1}) {
		t.Error("StateFact holds off-state")
	}
}
