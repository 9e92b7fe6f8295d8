package search_test

import (
	"errors"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"kpa/internal/betting"
	"kpa/internal/core"
	"kpa/internal/frame"
	"kpa/internal/rat"
	"kpa/internal/search"
	"kpa/internal/system"
)

// coupledSystem builds two structurally identical synchronous binary trees
// with different transition probabilities. Agent 0 observes only the time,
// agent 1 the full history; histories are deliberately not tree-qualified,
// so the same p_1 local state occurs in both trees and every offer couples
// the two trees' expectations — the shape that makes the bottleneck
// objective a genuine search problem.
func coupledSystem(t testing.TB, depth int) *system.System {
	t.Helper()
	mk := func(tree, hist string, d int) system.GlobalState {
		return system.GlobalState{
			Env: tree + ":" + hist,
			Locals: []system.LocalState{
				system.LocalState("a0:t" + strconv.Itoa(d)),
				system.LocalState("a1:" + hist),
			},
		}
	}
	build := func(name string, pLeft rat.Rat) *system.Tree {
		tb := system.NewTree(name, mk(name, "", 0))
		type fnode struct {
			id system.NodeID
			h  string
			d  int
		}
		frontier := []fnode{{0, "", 0}}
		for len(frontier) > 0 {
			var next []fnode
			for _, f := range frontier {
				if f.d == depth {
					continue
				}
				l := tb.Child(f.id, pLeft, mk(name, f.h+"a", f.d+1))
				r := tb.Child(f.id, rat.One.Sub(pLeft), mk(name, f.h+"b", f.d+1))
				next = append(next,
					fnode{l, f.h + "a", f.d + 1},
					fnode{r, f.h + "b", f.d + 1})
			}
			frontier = next
		}
		tree, err := tb.Build()
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	sys, err := system.New(2,
		build("T0", rat.New(2, 5)),
		build("T1", rat.New(1, 3)))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// scatterFact is a deterministic pseudo-random run fact, inverted between
// the trees so their per-cell expectations conflict.
func scatterFact(name string) system.Fact {
	return system.NewFact(name, func(p system.Point) bool {
		r := uint32(p.Run) * 2654435761
		if p.Tree.Adversary == "T1" {
			r = ^r
		}
		return r%7 < 3
	})
}

// coupledProblem compiles the standard coupled fixture: rule Bet_1(φ, 1/2)
// for agent 0 anchored at time `at` of a depth-`depth` coupledSystem.
func coupledProblem(t testing.TB, depth, at int, mode search.Mode) *search.Problem {
	t.Helper()
	sys := coupledSystem(t, depth)
	P := core.NewProbAssignment(sys, core.Post(sys))
	rule := betting.MustRule(scatterFact("phi"), rat.New(1, 2))
	c := system.Point{Tree: sys.Trees()[0], Run: 0, Time: at}
	p, err := search.NewProblem(P, 0, 1, c, rule, []rat.Rat{rule.Threshold()}, mode)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProblemShape(t *testing.T) {
	p := coupledProblem(t, 5, 3, search.ModeAdversary)
	if got := p.Depth(); got != 8 { // 2^3 histories of length 3
		t.Fatalf("Depth = %d, want 8", got)
	}
	if got := p.NumOffers(); got != 2 {
		t.Fatalf("NumOffers = %d, want 2", got)
	}
	if got := p.NumSpaces(); got != 2 { // one space per tree
		t.Fatalf("NumSpaces = %d, want 2", got)
	}
	total, exact := p.TotalStrategies()
	if !exact || total != 256 {
		t.Fatalf("TotalStrategies = %d (exact=%v), want 256 exact", total, exact)
	}
	if p.Fingerprint() == "" {
		t.Fatal("empty fingerprint")
	}
	// Compilation is deterministic: same inputs, same fingerprint.
	q := coupledProblem(t, 5, 3, search.ModeAdversary)
	if p.Fingerprint() != q.Fingerprint() {
		t.Fatalf("fingerprints differ across identical compilations: %s vs %s",
			p.Fingerprint(), q.Fingerprint())
	}
	// ... and mode is part of the identity.
	r := coupledProblem(t, 5, 3, search.ModeAlly)
	if p.Fingerprint() == r.Fingerprint() {
		t.Fatal("adversary and ally problems share a fingerprint")
	}
}

// TestSingleCellHandBuilt pins the engine against the paper's analytic
// answer on the simplest instance: a biased coin p_1 never observes. The
// rule Bet_1(heads, 1/2) accepts payoff 2; with μ(heads) = 1/3 the
// adversary bets and wins −1/3 from p_0 per game, exactly
// MinExpectedWinnings' μ(φ)/α − 1.
func TestSingleCellHandBuilt(t *testing.T) {
	mk := func(hist string, d int) system.GlobalState {
		return system.GlobalState{
			Env: "C:" + hist,
			Locals: []system.LocalState{
				system.LocalState("a0:t" + strconv.Itoa(d)),
				system.LocalState("a1:t" + strconv.Itoa(d)),
			},
		}
	}
	tb := system.NewTree("C", mk("", 0))
	tb.Child(0, rat.New(1, 3), mk("h", 1))
	tb.Child(0, rat.New(2, 3), mk("t", 1))
	tree, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := system.New(2, tree)
	if err != nil {
		t.Fatal(err)
	}
	heads := system.NewFact("heads", func(p system.Point) bool { return p.Run == 0 })
	P := core.NewProbAssignment(sys, core.Post(sys))
	rule := betting.MustRule(heads, rat.New(1, 2))
	c := system.Point{Tree: tree, Run: 0, Time: 0}
	p, err := search.NewProblem(P, 0, 1, c, rule, []rat.Rat{rule.Threshold()}, search.ModeAdversary)
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.New(p, search.Config{Workers: 2}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := rat.New(-1, 3) // 2·(1/3) − 1
	if !res.Optimal || !res.Value.Equal(want) {
		t.Fatalf("adversary optimum = %s (optimal=%v), want %s", res.Value, res.Optimal, want)
	}
	// The witness must actually achieve the optimum in betting-game terms.
	sp := P.MustSpace(0, c)
	e, err := betting.ExpectedWinnings(sp, rule, res.Strategy, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Equal(want) {
		t.Fatalf("witness strategy wins %s, want %s", e, want)
	}
	// And it must agree with the analytic reduction.
	min, _, err := betting.MinExpectedWinnings(sp, rule, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !min.Equal(res.Value) {
		t.Fatalf("engine %s vs MinExpectedWinnings %s", res.Value, min)
	}
}

func TestCheckpointCodecRoundTrip(t *testing.T) {
	c := &search.Checkpoint{
		Fingerprint:   "abc123",
		Frontier:      [][]byte{{0, 1}, {1}, {}},
		Incumbent:     &search.Incumbent{Value: "-5/7", Choices: []byte{0, 1, 1}},
		NodesExpanded: 42,
		NodesPruned:   17,
		LeafEvals:     9,
		Request:       []byte(`{"job": [ 1 ]}`),
	}
	data, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := search.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != c.Fingerprint || got.NodesExpanded != 42 ||
		got.NodesPruned != 17 || got.LeafEvals != 9 || len(got.Frontier) != 3 {
		t.Fatalf("round trip mangled checkpoint: %+v", got)
	}
	if got.Incumbent == nil || got.Incumbent.Value != "-5/7" || len(got.Incumbent.Choices) != 3 {
		t.Fatalf("round trip mangled incumbent: %+v", got.Incumbent)
	}
	// The request is opaque bytes: kept exactly, spaces and all.
	if string(got.Request) != string(c.Request) {
		t.Fatalf("round trip changed the request: %q, want %q", got.Request, c.Request)
	}
}

// TestCheckpointCodecRejects: a document that passes the frame but not
// the codec's own checks is frame.ErrCorrupt.
func TestCheckpointCodecRejects(t *testing.T) {
	cases := map[string]string{
		"bad json":       `{`,
		"no fingerprint": `{"frontier":[]}`,
		"bad incumbent":  `{"fingerprint":"x","incumbent":{"value":"nope","choices":"AA=="}}`,
	}
	for name, doc := range cases {
		if _, err := search.DecodeCheckpoint(frameDoc(doc, search.CheckpointVersion)); !errors.Is(err, frame.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

func TestRunRejectsForeignCheckpoint(t *testing.T) {
	p := coupledProblem(t, 4, 2, search.ModeAdversary)
	q := coupledProblem(t, 4, 3, search.ModeAdversary) // different anchor, different tables
	eng := search.New(p, search.Config{Workers: 1})
	if _, err := eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	ckpt := eng.Checkpoint()
	if _, err := search.New(q, search.Config{Workers: 1}).Run(&ckpt); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("foreign checkpoint accepted (err=%v)", err)
	}
}

func TestEngineRunsOnce(t *testing.T) {
	p := coupledProblem(t, 4, 2, search.ModeAdversary)
	eng := search.New(p, search.Config{Workers: 1})
	if _, err := eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(nil); err == nil {
		t.Fatal("second Run did not fail")
	}
}

func TestCancelRetainsResumableState(t *testing.T) {
	p := coupledProblem(t, 7, 4, search.ModeAdversary) // 16 locals, 65536 strategies
	full, err := search.New(p, search.Config{Workers: 4}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}

	var polls atomic.Uint64
	wantErr := errors.New("canceled by test")
	eng := search.New(p, search.Config{
		Workers: 4,
		Cancel: func() error {
			if polls.Add(1) >= 5 {
				return wantErr
			}
			return nil
		},
	})
	res, err := eng.Run(nil)
	if !errors.Is(err, wantErr) {
		t.Fatalf("Run err = %v, want the cancel error", err)
	}
	if res.Optimal {
		t.Fatal("canceled run claims optimality")
	}

	// The checkpoint must cover the remaining space: resuming completes the
	// search with the same optimum as the uninterrupted run.
	ckpt := eng.Checkpoint()
	if len(ckpt.Frontier) == 0 {
		t.Fatal("canceled engine has an empty frontier despite unexplored space")
	}
	resumed, err := search.New(p, search.Config{Workers: 4}).Run(&ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Optimal || !resumed.Value.Equal(full.Value) {
		t.Fatalf("resumed optimum = %s (optimal=%v), want %s", resumed.Value, resumed.Optimal, full.Value)
	}
}

// TestModeOptimaBoundEveryStrategy checks each mode's optimum really is an
// optimum: no explicit strategy's own objective beats it. The adversary
// value min_f max_d lower-bounds every strategy's worst case; the ally
// value max_f min_d upper-bounds every strategy's best guarantee.
func TestModeOptimaBoundEveryStrategy(t *testing.T) {
	pAdv := coupledProblem(t, 5, 3, search.ModeAdversary)
	pAlly := coupledProblem(t, 5, 3, search.ModeAlly)
	adv, err := search.New(pAdv, search.Config{Workers: 4}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	ally, err := search.New(pAlly, search.Config{Workers: 4}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	depth := pAdv.Depth()
	for _, choice := range []uint8{0, 1} {
		choices := make([]uint8, depth)
		for k := range choices {
			choices[k] = choice
		}
		v, err := pAdv.Objective(choices)
		if err != nil {
			t.Fatal(err)
		}
		if v.Less(adv.Value) {
			t.Fatalf("constant-%d strategy beats the adversary optimum: %s < %s", choice, v, adv.Value)
		}
		u, err := pAlly.Objective(choices)
		if err != nil {
			t.Fatal(err)
		}
		if u.Greater(ally.Value) {
			t.Fatalf("constant-%d strategy beats the ally optimum: %s > %s", choice, u, ally.Value)
		}
	}
}

func TestProgressCounters(t *testing.T) {
	p := coupledProblem(t, 5, 3, search.ModeAdversary)
	eng := search.New(p, search.Config{Workers: 2})
	if _, err := eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	prog := eng.Progress()
	if prog.NodesExpanded == 0 {
		t.Fatal("no nodes expanded")
	}
	if prog.LeafEvals == 0 {
		t.Fatal("no leaves evaluated")
	}
	if prog.Incumbent == "" {
		t.Fatal("no incumbent reported")
	}
	if prog.FrontierLen != 0 {
		t.Fatalf("finished engine reports frontier length %d", prog.FrontierLen)
	}
}
