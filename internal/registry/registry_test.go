package registry

import (
	"strings"
	"testing"
)

func TestLookupAllFixedNames(t *testing.T) {
	for _, name := range []string{
		"introcoin", "vardi", "die", "biased", "fig1",
		"ca1", "ca2", "ca3", "canever", "aces-fixed", "aces-random",
	} {
		t.Run(name, func(t *testing.T) {
			e, err := Lookup(name)
			if err != nil {
				t.Fatalf("Lookup(%q): %v", name, err)
			}
			if e.Sys == nil || e.Name != name || e.Description == "" {
				t.Errorf("entry malformed: %+v", e)
			}
			if e.Props == nil {
				t.Error("nil props map")
			}
			// All propositions hold somewhere or fail somewhere — sanity:
			// just evaluate each at every point without panicking.
			for pname, fact := range e.Props {
				for p := range e.Sys.Points() {
					_ = fact.Holds(p)
				}
				if pname == "" {
					t.Error("empty proposition name")
				}
			}
		})
	}
}

func TestLookupAsync(t *testing.T) {
	e, err := Lookup("async:4")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Sys.Trees()[0].NumRuns(); got != 16 {
		t.Errorf("async:4 runs = %d, want 16", got)
	}
	for _, bad := range []string{"async:", "async:0", "async:99", "async:x"} {
		if _, err := Lookup(bad); err == nil {
			t.Errorf("Lookup(%q) should fail", bad)
		}
	}
}

func TestLookupScale(t *testing.T) {
	e, err := Lookup("scale:100k")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Sys.NumPoints(); got < 100_000-2_000 || got > 110_000 {
		t.Errorf("scale:100k points = %d, want ~100k", got)
	}
	for _, p := range []string{"m2", "m3", "m5"} {
		if e.Props[p] == nil {
			t.Errorf("scale entry missing prop %q", p)
		}
	}
	for _, bad := range []string{"scale:", "scale:9q", "scale:100K"} {
		if _, err := Lookup(bad); err == nil {
			t.Errorf("Lookup(%q) should fail", bad)
		} else if !strings.Contains(err.Error(), "100k") {
			t.Errorf("Lookup(%q) error should list tiers: %v", bad, err)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	_, err := Lookup("nonsense")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "introcoin") {
		t.Errorf("error should list known names: %v", err)
	}
}

// TestReservedMatchesLookup pins Reserved, the syntactic check uploads
// use, to what Lookup accepts. Names lists every fixed name plus the two
// parameterized patterns, which are not names themselves.
func TestReservedMatchesLookup(t *testing.T) {
	names := append(Names(),
		"async:0", "async:1", "async:12", "async:13", "async:x",
		"scale:100k", "scale:nope", "")
	for _, name := range names {
		_, err := Lookup(name)
		if got, want := Reserved(name), err == nil; got != want {
			t.Errorf("Reserved(%q) = %v, but Lookup's error is %v", name, got, err)
		}
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) < 10 {
		t.Fatalf("names = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("names not sorted: %q before %q", names[i-1], names[i])
		}
	}
}

func TestAssignment(t *testing.T) {
	entry, err := Lookup("introcoin")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"post", "fut", "prior", "opp:1"} {
		sa, err := Assignment(entry.Sys, name)
		if err != nil {
			t.Fatalf("Assignment(%q): %v", name, err)
		}
		if sa == nil || sa.Name() == "" {
			t.Fatalf("Assignment(%q) returned unnamed assignment", name)
		}
	}
	for _, name := range []string{"", "nope", "opp:0", "opp:9", "opp:x"} {
		if _, err := Assignment(entry.Sys, name); err == nil {
			t.Fatalf("Assignment(%q) unexpectedly succeeded", name)
		}
	}
}
