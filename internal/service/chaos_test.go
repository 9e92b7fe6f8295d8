package service

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"kpa/internal/faultinject"
)

// chaosMix is the traffic a chaos run cycles through: cache-friendly
// repeats, distinct evaluations, client mistakes and unknown systems.
var chaosMix = []CheckRequest{
	{System: "introcoin", Formula: "K1^1/2 heads"},
	{System: "introcoin", Formula: "heads"},
	{System: "die", Assign: "fut", Formula: "K2 even"},
	{System: "die", Formula: "Pr2(even) >= 1/2"},
	{System: "async:4", Formula: "K1 (Pr1(lastHeads) >= 1/3)"},
	{System: "async:4", Formula: "!(K2 lastHeads)"},
	{System: "introcoin", Formula: "(("},         // parse error
	{System: "introcoin", Formula: "K9 heads"},   // bad agent
	{System: "no-such-system", Formula: "heads"}, // not found
	{System: "die", Formula: "nosuchprop"},       // unknown proposition
}

// knownKinds is every error classification a chaos run may legitimately
// produce. Anything outside it — in particular a raw, untyped error
// escaping to the caller with KindInternal when a seam did not fire — is a
// taxonomy bug.
func chaosKindOK(k ErrorKind) bool {
	switch k {
	case KindBadRequest, KindNotFound, KindOverloaded, KindTimeout,
		KindCanceled, KindPanic, KindInternal:
		return true
	}
	return false
}

// TestChaosServiceMixedTraffic plays the paper's adversary against the
// serving stack: a seeded injector fires latency, errors and panics at the
// store, pool and evaluator seams while concurrent mixed traffic runs.
// Afterwards the counters must reconcile exactly with what the injector
// reports, no goroutine may linger, and — the cache-poisoning check —
// every verdict the degraded service can still produce must equal a clean
// service's verdict for the same request.
func TestChaosServiceMixedTraffic(t *testing.T) {
	errInjected := errors.New("injected store fault")
	inj := faultinject.New(20260805)
	inj.Set("store.get", faultinject.Plan{Every: 11, Err: errInjected})
	inj.Set("pool.get", faultinject.Plan{Every: 7, Latency: time.Millisecond})
	inj.Set("eval", faultinject.Plan{Every: 5, PanicMsg: "chaos"})

	before := runtime.NumGoroutine()
	svc := New(Config{
		MaxInFlight: 4,
		QueueWait:   50 * time.Millisecond,
		Seams: &Seams{
			BeforeStoreGet: func(string) error { return inj.Hit("store.get") },
			BeforePoolGet:  inj.Func("pool.get"),
			BeforeEval:     func(string) error { return inj.Hit("eval") },
		},
	})

	const workers, iters = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				req := chaosMix[(g*iters+i)%len(chaosMix)]
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				_, err := svc.Check(ctx, req)
				cancel()
				if err != nil && !chaosKindOK(KindOf(err)) {
					t.Errorf("unclassified chaos error (kind %s): %v", KindOf(err), err)
				}
			}
		}(g)
	}
	wg.Wait()

	// Counters reconcile with the injector, interleaving notwithstanding:
	// every fired eval-seam panic was contained exactly once; every
	// eval-seam call that did not fire reached the evaluator.
	st := svc.Stats()
	if got, want := st.Resilience.Panics, inj.Fired("eval"); got != want {
		t.Fatalf("contained panics = %d, injector fired %d", got, want)
	}
	if got, want := st.Eval.Evals, inj.Calls("eval")-inj.Fired("eval"); got != want {
		t.Fatalf("evals = %d, want calls-fired = %d", got, want)
	}
	if inj.Fired("eval") == 0 || inj.Fired("store.get") == 0 {
		t.Fatalf("chaos run fired nothing: %+v", inj.Snapshot())
	}

	// No goroutine outlives the flood.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after chaos; %+v",
				before, runtime.NumGoroutine(), svc.Stats().Resilience)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Cache-poisoning check: disarm every fault, then replay the valid mix
	// against the degraded service and a clean oracle. Any verdict the
	// chaotic run left in the cache must agree with the oracle.
	for _, site := range []string{"store.get", "pool.get", "eval"} {
		inj.Set(site, faultinject.Plan{})
	}
	oracle := New(Config{})
	for _, req := range chaosMix {
		ctx := context.Background()
		want, err := oracle.Check(ctx, req)
		if err != nil {
			continue // the mix's intentional client mistakes
		}
		got, err := svc.Check(ctx, req)
		if err != nil {
			t.Fatalf("disarmed service failed %+v: %v", req, err)
		}
		if got.Valid != want.Valid || got.HoldsAt != want.HoldsAt || got.Points != want.Points {
			t.Fatalf("poisoned verdict for %+v:\n  chaos:  %+v\n  oracle: %+v", req, got, want)
		}
	}
}
