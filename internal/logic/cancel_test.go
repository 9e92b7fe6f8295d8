package logic

import (
	"errors"
	"testing"
	"time"

	"kpa/internal/canon"
	"kpa/internal/core"
	"kpa/internal/gen"
	"kpa/internal/rat"
	"kpa/internal/system"
)

var errCancelTest = errors.New("cancel_test: stop")

// asyncEval builds an evaluator over the clockless n-coin system with the
// post assignment and the proposition "lastHeads" — the systems big enough
// to make cancellation observable.
func asyncEval(t testing.TB, n int) *Evaluator {
	t.Helper()
	sys := canon.AsyncCoins(n)
	post := core.NewProbAssignment(sys, core.Post(sys))
	return NewEvaluator(sys, post, map[string]system.Fact{"lastHeads": canon.LastTossHeads()})
}

// deepFormula nests depth alternating K_1/Pr_2 operators, every level a
// structurally distinct node, so one evaluation is depth full passes over
// the system with no memo reuse between levels.
func deepFormula(depth int) Formula {
	f := Prop("lastHeads")
	bounds := []rat.Rat{rat.New(1, 3), rat.New(1, 5), rat.New(2, 7), rat.New(3, 11)}
	for i := 0; i < depth; i++ {
		agent := system.AgentID(i % 2)
		f = K(agent, PrGeq(agent, f, bounds[i%len(bounds)]))
	}
	return f
}

func TestCancelHookErrorPropagates(t *testing.T) {
	e := asyncEval(t, 4)
	e.SetCancel(func() error { return errCancelTest })
	_, err := e.Extension(MustParse("K1^1/2 lastHeads"))
	if !errors.Is(err, errCancelTest) {
		t.Fatalf("canceled evaluation returned %v, want the hook's error", err)
	}
	if e.MemoLen() != 0 {
		t.Fatalf("memo holds %d entries after an immediately-canceled evaluation", e.MemoLen())
	}
	// Valid and Holds go through the same path.
	if _, err := e.Valid(MustParse("lastHeads")); !errors.Is(err, errCancelTest) {
		t.Fatalf("Valid under canceled hook: %v", err)
	}
}

func TestCancelClearedHookRuns(t *testing.T) {
	e := asyncEval(t, 4)
	e.SetCancel(func() error { return errCancelTest })
	if _, err := e.Extension(Prop("lastHeads")); err == nil {
		t.Fatal("hooked evaluation succeeded")
	}
	e.SetCancel(nil)
	ok, err := e.Valid(MustParse("lastHeads | !lastHeads"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("tautology must be valid once the hook is cleared")
	}
}

// TestCancelStopsWork pins the promptness contract mechanically: after the
// hook first returns an error, the evaluator asks it nothing more — the
// abort happens at the current cancellation point, not after finishing the
// formula.
func TestCancelStopsWork(t *testing.T) {
	e := asyncEval(t, 6)
	calls, failAt := 0, 25
	e.SetCancel(func() error {
		calls++
		if calls >= failAt {
			return errCancelTest
		}
		return nil
	})
	_, err := e.Extension(deepFormula(200))
	if !errors.Is(err, errCancelTest) {
		t.Fatalf("deep evaluation returned %v, want cancellation", err)
	}
	if calls != failAt {
		t.Fatalf("hook called %d times after first error at call %d; cancellation must stop the walk", calls, failAt)
	}
}

// TestCancelFixpointRounds cancels from inside a common-knowledge fixpoint:
// the subformula extension is pre-warmed into the memo, so after the
// CommonPr node's own entry check every remaining hook call is a fixpoint
// round check — failing on the second call aborts mid-fixpoint.
func TestCancelFixpointRounds(t *testing.T) {
	e := asyncEval(t, 6)
	group := []system.AgentID{0, 1}
	sub := MustParse("F lastHeads")
	if _, err := e.DenseExtension(sub); err != nil {
		t.Fatal(err)
	}
	f := CommonPr(group, sub, rat.New(1, 3))
	calls := 0
	e.SetCancel(func() error {
		calls++
		if calls >= 2 {
			return errCancelTest
		}
		return nil
	})
	if _, err := e.Extension(f); !errors.Is(err, errCancelTest) {
		t.Fatalf("fixpoint evaluation returned %v, want cancellation", err)
	}
}

// TestCancelDoesNotPoisonMemo aborts an evaluation midway, then reruns it
// without the hook: the surviving memo entries must all be correct, so the
// rerun's verdict has to match a fresh evaluator's.
func TestCancelDoesNotPoisonMemo(t *testing.T) {
	sys := canon.AsyncCoins(5)
	props := map[string]system.Fact{"lastHeads": canon.LastTossHeads()}
	e := NewEvaluator(sys, core.NewProbAssignment(sys, core.Post(sys)), props)

	// Warm some correct entries, then abort an evaluation midway through a
	// deeper formula over the same subtrees.
	base := deepFormula(10)
	if _, err := e.DenseExtension(base); err != nil {
		t.Fatal(err)
	}
	warm := e.MemoLen()
	if warm == 0 {
		t.Fatal("warm-up memoized nothing")
	}
	f := deepFormula(40)
	calls := 0
	e.SetCancel(func() error {
		calls++
		if calls > 30 {
			return errCancelTest
		}
		return nil
	})
	if _, err := e.Extension(f); !errors.Is(err, errCancelTest) {
		t.Fatal("midway cancellation did not take")
	}
	e.SetCancel(nil)
	got, err := e.DenseExtension(f)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh evaluator over the same system is the oracle: the canceled-
	// then-resumed evaluator must agree with it point for point.
	fresh := NewEvaluator(sys, core.NewProbAssignment(sys, core.Post(sys)), props)
	want, err := fresh.DenseExtension(f)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("extension after canceled-then-resumed evaluation differs from fresh (warm memo had %d entries)", warm)
	}
}

// TestCancelPromptWallClock bounds the wall-clock of an aborted pathological
// evaluation: a deadline hook must cut a multi-hundred-level nesting short
// long before the full evaluation would finish. The bound is deliberately
// loose (one second for a ~5ms deadline) so slow CI machines do not flake.
func TestCancelPromptWallClock(t *testing.T) {
	e := asyncEval(t, 8)
	deadline := time.Now().Add(5 * time.Millisecond)
	e.SetCancel(func() error {
		if time.Now().After(deadline) {
			return errCancelTest
		}
		return nil
	})
	start := time.Now()
	_, err := e.Extension(deepFormula(4000))
	elapsed := time.Since(start)
	if !errors.Is(err, errCancelTest) {
		t.Fatalf("pathological evaluation finished (%v) before the deadline hook fired — deepen the formula", err)
	}
	if elapsed > time.Second {
		t.Fatalf("canceled evaluation took %v, want well under a second", elapsed)
	}
}

// TestCancelScaleParallelLatency is the scale-tier promptness drill: a
// depth-heavy evaluation over the ~10^5-point benchmark broom, running with
// a parallelism budget of 8, must observe a deadline hook within roughly one
// shard round — not after the nesting completes. The hook is a pure
// deadline check, safe for the concurrent polling the sharded kernels do.
// The wall bound is deliberately generous so single-core CI does not flake;
// the uncancelled evaluation would run orders of magnitude longer.
func TestCancelScaleParallelLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10^5-point system")
	}
	sys := gen.MustScaleSystem(gen.ScaleTiers["100k"])
	props := map[string]system.Fact{"p": gen.ScaleFact("p", 3)}
	e := NewEvaluator(sys, core.NewProbAssignment(sys, core.Post(sys)), props)
	e.SetEngine(NewEngine(8))

	// Alternating K/Pr nesting over all three agents: every level is a fresh
	// full pass over the 10^5 points with no memo reuse.
	f := Formula(Prop("p"))
	bounds := []rat.Rat{rat.New(1, 3), rat.New(1, 5), rat.New(2, 7)}
	for i := 0; i < 2000; i++ {
		agent := system.AgentID(i % 3)
		f = K(agent, PrGeq(agent, f, bounds[i%len(bounds)]))
	}

	deadline := time.Now().Add(10 * time.Millisecond)
	e.SetCancel(func() error {
		if time.Now().After(deadline) {
			return errCancelTest
		}
		return nil
	})
	start := time.Now()
	_, err := e.Extension(f)
	elapsed := time.Since(start)
	if !errors.Is(err, errCancelTest) {
		t.Fatalf("scale evaluation finished (%v) before the deadline hook fired — deepen the formula", err)
	}
	if elapsed > 15*time.Second {
		t.Fatalf("canceled scale evaluation took %v, want roughly one shard round", elapsed)
	}
}
