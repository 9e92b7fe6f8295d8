package logic

import (
	"strconv"
	"testing"

	"kpa/internal/canon"
	"kpa/internal/rat"
	"kpa/internal/system"
)

// TestParseInterning pins the hash-consing contract: two parses of the same
// query text yield the identical (pointer-equal) formula node, so evaluator
// memos keyed by node identity hit across separately-parsed copies.
func TestParseInterning(t *testing.T) {
	texts := []string{
		"p",
		"!p",
		"p & q",
		"p | q -> !q",
		"X (p U q)",
		"F p",
		"G (p -> q)",
		"K1 p",
		"Pr1(p) >= 1/2",
		"Pr2(p & q) <= 1/3",
		"E{1,2} p",
		"C{1,2} (p & q)",
		"E{1,2}^1/2 p",
		"C{1,2}^2/3 p",
	}
	for _, text := range texts {
		a, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		b, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) again: %v", text, err)
		}
		if a != b {
			t.Errorf("Parse(%q) not interned: %p vs %p", text, a, b)
		}
	}
}

// TestConstructorInterning checks that the Go constructors intern too, and
// that desugared forms share nodes: G p expands through the same ¬(true U ¬p)
// extension chain on every build.
func TestConstructorInterning(t *testing.T) {
	p := Prop("p")
	if p != Prop("p") {
		t.Error("Prop not interned")
	}
	if Not(p) != Not(Prop("p")) {
		t.Error("Not not interned")
	}
	if And(p, Not(p)) != And(Prop("p"), Not(Prop("p"))) {
		t.Error("And not interned")
	}
	if K(0, p) != K(0, p) {
		t.Error("K not interned")
	}
	half := rat.New(1, 2)
	if PrGeq(1, p, half) != PrGeq(1, p, rat.New(2, 4)) {
		t.Error("PrGeq not interned up to rational normalization")
	}
	// Group constructors normalize order before interning.
	g1 := []system.AgentID{1, 0}
	g2 := []system.AgentID{0, 1}
	if Common(g1, p) != Common(g2, p) {
		t.Error("Common not interned up to group order")
	}
	if EveryonePr(g1, p, half) != EveryonePr(g2, p, half) {
		t.Error("EveryonePr not interned up to group order")
	}
	// Distinct formulas stay distinct.
	if K(0, p) == K(1, p) {
		t.Error("distinct agents interned together")
	}
	if PrGeq(0, p, half) == PrGeq(0, p, rat.New(1, 3)) {
		t.Error("distinct bounds interned together")
	}
}

// TestInterningMemoHit checks the property the satellite is really about:
// re-parsing the same text against a long-lived evaluator does not grow the
// memo — the second parse's nodes are the first parse's nodes.
func TestInterningMemoHit(t *testing.T) {
	sys := canon.IntroCoin()
	ev := NewEvaluator(sys, nil, map[string]system.Fact{
		"p": system.NewFact("p", func(pt system.Point) bool { return pt.Time > 0 }),
	})
	const text = "G (K1 p | !p)"
	f1, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Extension(f1); err != nil {
		t.Fatal(err)
	}
	before := ev.MemoLen()
	if before == 0 {
		t.Fatal("memo empty after evaluation")
	}
	f2, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("re-parse produced a distinct node")
	}
	if _, err := ev.Extension(f2); err != nil {
		t.Fatal(err)
	}
	if after := ev.MemoLen(); after != before {
		t.Errorf("memo grew on re-parse: %d -> %d", before, after)
	}

	// The intern table must not grow either: every node of the second parse
	// was already interned.
	size := internSize()
	if _, err := Parse(text); err != nil {
		t.Fatal(err)
	}
	if internSize() != size {
		t.Errorf("intern table grew on re-parse: %d -> %d", size, internSize())
	}
}

// TestInternTableBounded interns more distinct formulas than internCap and
// checks that the table never holds more than the cap, that two parses
// within one table's lifetime are still pointer-equal, and that a node
// from before a reset still evaluates: a reset costs a memo miss, never a
// wrong answer.
func TestInternTableBounded(t *testing.T) {
	sys := canon.IntroCoin()
	ev := NewEvaluator(sys, nil, map[string]system.Fact{"heads": canon.Heads()})
	old := MustParse("K1 heads | F heads")
	want, err := ev.Extension(old)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= internCap; i++ {
		Prop("bound" + strconv.Itoa(i))
		if n := internSize(); n > internCap {
			t.Fatalf("intern table holds %d nodes, cap %d", n, internCap)
		}
	}
	a, b := MustParse("K1 heads | F heads"), MustParse("K1 heads | F heads")
	if a != b {
		t.Fatal("two parses within one table's lifetime are not pointer-equal")
	}
	if a == old {
		t.Fatal("the table kept its nodes across more than internCap new ones")
	}
	for _, f := range []Formula{old, a} {
		got, err := ev.Extension(f)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: extension changed across an intern-table reset", f)
		}
	}
}
