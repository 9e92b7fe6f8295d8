package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRepoIsClean runs the full suite against this repository's own
// module root and demands a clean bill: exit status 0, no diagnostics.
// This is the same invocation `make lint` and scripts/verify.sh use, so
// a contract violation anywhere in the tree fails the tier-1 suite here.
func TestRepoIsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", "../..", "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("kpavet on own repo: exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("kpavet on own repo: unexpected diagnostics:\n%s", stdout.String())
	}
}

// rosterNames is the pinned 10-analyzer roster, in roster order.
var rosterNames = []string{
	"bigimport", "cancelpoll", "ctxflow", "errkind", "floatprob",
	"goleak", "lockguard", "maprange", "ratmut", "shardsafe",
}

// TestList pins the analyzer roster: each of the ten analyzers
// must be present and documented.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("kpavet -list: exit %d, stderr: %s", code, stderr.String())
	}
	if got := strings.Count(stdout.String(), "\n"); got != len(rosterNames) {
		t.Errorf("kpavet -list printed %d analyzers, want %d:\n%s", got, len(rosterNames), stdout.String())
	}
	for _, name := range rosterNames {
		if !strings.Contains(stdout.String(), name+":") {
			t.Errorf("kpavet -list output missing %q:\n%s", name+":", stdout.String())
		}
	}
}

// TestRunFilter: -run restricts the roster to the named subset in
// roster order, regardless of the order given.
func TestRunFilter(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "goleak,ctxflow", "-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("kpavet -run -list: exit %d, stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("kpavet -run goleak,ctxflow -list: %d lines, want 2:\n%s", len(lines), stdout.String())
	}
	if !strings.HasPrefix(lines[0], "ctxflow:") || !strings.HasPrefix(lines[1], "goleak:") {
		t.Errorf("filtered -list not in roster order:\n%s", stdout.String())
	}
}

// TestRunUnknown: a typo'd analyzer name must fail loudly (exit 2) and
// name the valid roster instead of silently running nothing.
func TestRunUnknown(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "goleek"}, &stdout, &stderr); code != 2 {
		t.Fatalf("kpavet -run goleek: exit %d, want 2\nstderr: %s", code, stderr.String())
	}
	for _, needle := range append([]string{"unknown analyzer", "goleek"}, rosterNames...) {
		if !strings.Contains(stderr.String(), needle) {
			t.Errorf("-run error %q does not mention %q", stderr.String(), needle)
		}
	}
}

// TestRunSubsetOnRepo: a -run subset actually restricts execution — the
// repo is clean under the full suite, so a one-analyzer run must be
// clean too, and much of the point is that this is the fast iteration
// path.
func TestRunSubsetOnRepo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", "../..", "-run", "errkind", "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("kpavet -run errkind on own repo: exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("kpavet -run errkind on own repo: unexpected diagnostics:\n%s", stdout.String())
	}
}

// TestBadPattern rejects anything but ./... so a typo'd invocation can't
// silently analyze the wrong thing.
func TestBadPattern(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./cmd/kpavet"}, &stdout, &stderr); code != 2 {
		t.Fatalf("kpavet ./cmd/kpavet: exit %d, want 2", code)
	}
}
