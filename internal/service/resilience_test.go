package service

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// deepFormula builds a pathological nested formula: every level is
// structurally distinct (alternating K, Pr-with-varying-bound and negation
// nodes, with the rational bound rotating), so the evaluator's memo cannot
// collapse the tower and evaluation time grows with depth.
func deepFormula(depth int) string {
	bounds := []string{"1/3", "1/5", "2/7", "3/11"}
	f := "lastHeads"
	for i := 0; i < depth; i++ {
		switch i % 3 {
		case 0:
			f = fmt.Sprintf("K%d (%s)", i%2+1, f)
		case 1:
			f = fmt.Sprintf("Pr%d(%s) >= %s", i%2+1, f, bounds[i%len(bounds)])
		case 2:
			f = fmt.Sprintf("!(%s)", f)
		}
	}
	return f
}

// TestDeadlineCancelsPathologicalEvaluation is the acceptance test for
// cooperative cancellation: a formula whose full evaluation runs for
// multiple seconds is checked by a client whose context dies shortly
// after the evaluator starts (the seam signal makes "shortly after" exact
// rather than a guess about parse time, so the test is deterministic even
// under the race detector). The request must come back typed and quickly,
// and the detached evaluation goroutine must observe the abandonment and
// halt early — proved by the cancels counter (which only moves when an
// evaluation stops before completing) and by the in-flight gauge draining
// several seconds before a full evaluation could have finished.
func TestDeadlineCancelsPathologicalEvaluation(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	svc := New(Config{Seams: &Seams{BeforeEval: func(string) error {
		once.Do(func() { close(started) })
		return nil
	}}})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := svc.Check(ctx, CheckRequest{System: "async:12", Formula: deepFormula(9000)})
		errc <- err
	}()
	<-started                         // the evaluator is now inside the formula
	time.Sleep(50 * time.Millisecond) // and some way into the extension
	deadline := time.Now()
	cancel() // the client's deadline fires

	select {
	case err := <-errc:
		if KindOf(err) != KindCanceled {
			t.Fatalf("Check error = %v (kind %s), want canceled", err, KindOf(err))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Check did not return after its context died")
	}
	// The evaluation goroutine keeps no one waiting: it must cancel and
	// drain promptly, not run its remaining seconds to completion.
	for {
		st := svc.Stats().Resilience
		if st.Cancels >= 1 && st.InFlight == 0 {
			break
		}
		if time.Since(deadline) > 3*time.Second {
			t.Fatalf("evaluation still running %v after the deadline: %+v", time.Since(deadline), st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStampedeCollapsesToOneEvaluation floods the service with identical
// concurrent cache misses: singleflight must run exactly one evaluation,
// serve every request from it, and mark everyone but the leader's request
// as cached.
func TestStampedeCollapsesToOneEvaluation(t *testing.T) {
	const stampede = 16
	release := make(chan struct{})
	svc := New(Config{Seams: &Seams{
		// Hold the single evaluation open until every request has joined
		// the flight, so the test cannot pass by accident of timing.
		BeforeEval: func(string) error { <-release; return nil },
	}})
	req := CheckRequest{System: "introcoin", Formula: "K1^1/2 heads"}

	var wg sync.WaitGroup
	var mu sync.Mutex
	uncached := 0
	for i := 0; i < stampede; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := svc.Check(context.Background(), req)
			if err != nil {
				t.Errorf("stampede check: %v", err)
				return
			}
			mu.Lock()
			if !v.Cached {
				uncached++
			}
			mu.Unlock()
		}()
	}
	// Wait until all requests are blocked on the one flight call, then let
	// the leader evaluate.
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Resilience.Dedups < stampede-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d requests joined the flight", svc.Stats().Resilience.Dedups)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	st := svc.Stats()
	if st.Eval.Evals != 1 {
		t.Fatalf("%d evaluations for %d identical concurrent misses, want exactly 1", st.Eval.Evals, stampede)
	}
	if st.Resilience.Dedups != stampede-1 {
		t.Fatalf("dedups = %d, want %d", st.Resilience.Dedups, stampede-1)
	}
	if uncached != 1 {
		t.Fatalf("%d requests reported uncached, want exactly the leader's", uncached)
	}
	// The shared verdict went into the cache once: a fresh request hits.
	v, err := svc.Check(context.Background(), req)
	if err != nil || !v.Cached {
		t.Fatalf("post-stampede check: %+v, %v, want a cache hit", v, err)
	}
}

// TestMissEvaluatesOnCallersGoroutine: at Parallelism 1 a cache miss
// starts no goroutine. The evaluation, seams included, runs on the
// goroutine that called Check.
func TestMissEvaluatesOnCallersGoroutine(t *testing.T) {
	goid := func() string {
		buf := make([]byte, 64)
		return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
	}
	var evalG string
	svc := New(Config{Parallelism: 1, Seams: &Seams{BeforeEval: func(string) error {
		evalG = goid()
		return nil
	}}})
	v, err := svc.Check(context.Background(), CheckRequest{System: "introcoin", Formula: "K1^1/2 heads"})
	if err != nil || v.Cached {
		t.Fatalf("check: %+v, %v, want a fresh verdict", v, err)
	}
	if g := goid(); evalG != g {
		t.Fatalf("the miss evaluated on goroutine %s, not its caller's %s", evalG, g)
	}
}

// TestFollowerOutlivesCanceledLeader is the singleflight contract when
// the leader gives up: the leader evaluates on its own goroutine under its
// own context, so canceling that context fails the leader with
// KindCanceled, but a follower that joined its flight must not inherit the
// cancellation. It joins again and gets the verdict from an evaluation of
// its own.
func TestFollowerOutlivesCanceledLeader(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	svc := New(Config{Seams: &Seams{BeforeEval: func(string) error {
		first := false
		once.Do(func() { first = true })
		if first { // hold the leader's evaluation, and only its
			close(held)
			<-release
		}
		return nil
	}}})
	req := CheckRequest{System: "introcoin", Formula: "K1^1/2 heads"}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := svc.Check(ctx, req)
		leaderErr <- err
	}()
	<-held
	type result struct {
		v   Verdict
		err error
	}
	follower := make(chan result, 1)
	go func() {
		v, err := svc.Check(context.Background(), req)
		follower <- result{v, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Resilience.Dedups < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the follower never joined the leader's flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)

	if err := <-leaderErr; KindOf(err) != KindCanceled {
		t.Fatalf("leader error = %v (kind %s), want canceled", err, KindOf(err))
	}
	r := <-follower
	if r.err != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", r.err)
	}
	if r.v.Valid || r.v.HoldsAt != 2 || r.v.Points != 4 || r.v.Cached {
		t.Fatalf("follower verdict %+v, want an uncached 2 of 4 points from its own evaluation", r.v)
	}
	if st := svc.Stats(); st.Eval.Evals != 2 || st.Resilience.Cancels != 1 {
		t.Fatalf("evals = %d, cancels = %d: want the canceled leader's evaluation and the follower's",
			st.Eval.Evals, st.Resilience.Cancels)
	}
	if v, err := svc.Check(context.Background(), req); err != nil || !v.Cached {
		t.Fatalf("after the follower's evaluation: %+v, %v, want a cache hit", v, err)
	}
}

// TestTimeoutFloodLeaksNoGoroutines fires a burst of requests with already
// tiny deadlines — most die in the admission queue or mid-evaluation — and
// then requires the goroutine count to settle back to where it started:
// no evaluation goroutine may outlive its abandonment for long, and none
// may block forever on a semaphore or channel.
func TestTimeoutFloodLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	svc := New(Config{MaxInFlight: 4, QueueWait: 50 * time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			defer cancel()
			// Distinct formulas: every request is its own cache miss and
			// its own flight, so the flood exercises queueing + abandonment
			// rather than collapsing onto one evaluation.
			_, _ = svc.Check(ctx, CheckRequest{
				System:  "async:8",
				Formula: deepFormula(600 + 3*i),
			})
		}(i)
	}
	wg.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finished goroutines off the count
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before flood, %d after settling; in flight: %+v",
				before, runtime.NumGoroutine(), svc.Stats().Resilience)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := svc.Stats().Resilience.InFlight; got != 0 {
		t.Fatalf("in-flight gauge = %d after flood settled", got)
	}
}

// TestOverloadSheds drives more concurrent distinct evaluations than there
// are slots while an injected stall holds the only slot: the overflow must
// be shed with a typed KindOverloaded error carrying the retry hint, not
// queued indefinitely.
func TestOverloadSheds(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	svc := New(Config{
		MaxInFlight: 1,
		QueueWait:   10 * time.Millisecond,
		Seams: &Seams{BeforeEval: func(string) error {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
			return nil
		}},
	})
	defer close(release)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = svc.Check(context.Background(), CheckRequest{System: "introcoin", Formula: "heads"})
	}()
	<-started // the slot is now held

	_, err := svc.Check(context.Background(), CheckRequest{System: "introcoin", Formula: "!heads"})
	if KindOf(err) != KindOverloaded {
		t.Fatalf("second check error = %v (kind %s), want overloaded", err, KindOf(err))
	}
	if RetryAfterOf(err) != time.Second {
		t.Fatalf("RetryAfterOf = %v, want the fixed 1s hint", RetryAfterOf(err))
	}
	if st := svc.Stats().Resilience; st.Sheds != 1 {
		t.Fatalf("sheds = %d, want 1", st.Sheds)
	}
}

// TestPanicContainedDiscardsWorker injects a panic inside the evaluation
// region: the request must fail with a typed KindPanic error, which loses
// only that request's evaluator, and the service must keep answering
// afterwards.
func TestPanicContainedDiscardsWorker(t *testing.T) {
	fail := true
	svc := New(Config{Seams: &Seams{BeforeEval: func(string) error {
		if fail {
			fail = false
			panic("injected evaluator crash")
		}
		return nil
	}}})

	_, err := svc.Check(context.Background(), CheckRequest{System: "introcoin", Formula: "heads"})
	if KindOf(err) != KindPanic {
		t.Fatalf("check during panic: %v (kind %s), want panic", err, KindOf(err))
	}
	st := svc.Stats()
	if st.Resilience.Panics != 1 {
		t.Fatalf("panics=%d, want 1", st.Resilience.Panics)
	}
	// The failure was not cached and the service still works.
	v, err := svc.Check(context.Background(), CheckRequest{System: "introcoin", Formula: "heads"})
	if err != nil || v.Cached {
		t.Fatalf("check after contained panic: %+v, %v, want a fresh verdict", v, err)
	}
}
