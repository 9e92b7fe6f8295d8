package logic

import (
	"testing"

	"kpa/internal/rat"
	"kpa/internal/system"
)

func TestParseBasics(t *testing.T) {
	tests := []struct {
		in   string
		want string // canonical String() form; "" means same as in
	}{
		{"p", ""},
		{"true", ""},
		{"false", ""},
		{"!p", ""},
		{"p & q", "p & q"},
		{"p | q", "p | q"},
		{"p -> q", "p -> q"},
		{"p U q", "p U q"},
		{"X p", "X p"},
		{"F p", "F p"},
		{"G p", "G p"},
		{"K1 p", "K1 p"},
		{"K2 (p & q)", "K2 (p & q)"},
		{"K1^1/2 p", "K1 (Pr1(p) >= 1/2)"},
		{"K1^0.99 p", "K1 (Pr1(p) >= 99/100)"},
		{"Pr1(p) >= 1/2", "Pr1(p) >= 1/2"},
		{"Pr2(p U q) <= 3/4", "Pr2(p U q) <= 3/4"},
		{"E{1,2} p", "E{1,2} p"},
		{"C{1,2} p", "C{1,2} p"},
		{"E{1,2}^0.99 p", "E{1,2}^99/100 p"},
		{"C{2,1}^1/2 p", "C{1,2}^1/2 p"}, // group normalized
		{"(p -> q) -> r", "(p -> q) -> r"},
		{"!p & q", "!p & q"}, // ! binds tighter than &
		{"p & q | r", "(p & q) | r"},
		{"p -> q -> r", "p -> (q -> r)"}, // right assoc
		{"p U q U r", "p U (q U r)"},     // right assoc
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			f, err := Parse(tt.in)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tt.in, err)
			}
			want := tt.want
			if want == "" {
				want = tt.in
			}
			if got := f.String(); got != want {
				t.Errorf("Parse(%q).String() = %q, want %q", tt.in, got, want)
			}
			// Round trip: parsing the rendering yields the same rendering.
			f2, err := Parse(f.String())
			if err != nil {
				t.Fatalf("re-Parse(%q): %v", f.String(), err)
			}
			if f2.String() != f.String() {
				t.Errorf("round trip: %q -> %q", f.String(), f2.String())
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"p &",
		"& p",
		"(p",
		"p)",
		"K0 p",       // agents numbered from 1
		"Pr1(p)",     // missing comparison
		"Pr1(p) > 1", // unsupported operator
		"Pr1(p) >= x",
		"E{} p",
		"E{1,} p",
		"K1^ p",
		"p q",
		"1/2",
		"@",
		"Pr1 p",
		"K1^1/0 p",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic")
		}
	}()
	MustParse("((")
}

func TestConstructors(t *testing.T) {
	if And().String() != "true" || Or().String() != "false" {
		t.Error("empty And/Or wrong")
	}
	f := And(Prop("a"), Prop("b"), Prop("c"))
	if f.String() != "(a & b) & c" {
		t.Errorf("And chain = %q", f.String())
	}
	iff := Iff(Prop("a"), Prop("b"))
	if iff.String() != "(a -> b) & (b -> a)" {
		t.Errorf("Iff = %q", iff.String())
	}
	ki := KInterval(0, Prop("p"), rat.New(1, 3), rat.New(2, 3))
	want := "K1 ((Pr1(p) >= 1/3) & (Pr1(!p) >= 1/3))"
	if ki.String() != want {
		t.Errorf("KInterval = %q, want %q", ki.String(), want)
	}
	g := []system.AgentID{1, 0}
	if Everyone(g, Prop("p")).String() != "E{1,2} p" {
		t.Error("group not normalized")
	}
	// Constructor must not alias the caller's slice.
	g[0] = 5
	if Everyone([]system.AgentID{1, 0}, Prop("p")).String() != "E{1,2} p" {
		t.Error("group aliased caller slice")
	}
}

func TestParseIntervalOperator(t *testing.T) {
	f, err := Parse("K1^[1/3,2/3] p")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := KInterval(0, Prop("p"), rat.New(1, 3), rat.New(2, 3)).String()
	if f.String() != want {
		t.Errorf("interval parse = %q, want %q", f.String(), want)
	}
	// Decimal bounds.
	if _, err := Parse("K2^[0.25, 0.75] (p & q)"); err != nil {
		t.Errorf("decimal interval: %v", err)
	}
	// Errors.
	for _, bad := range []string{
		"K1^[2/3,1/3] p", // empty interval
		"K1^[0,2] p",     // upper bound past 1
		"K1^[1/3] p",
		"K1^[1/3,2/3 p",
		"K1^[,1] p",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}
