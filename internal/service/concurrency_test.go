package service

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentMixedRequests hammers one shared system with concurrent
// check and batch requests. Run under -race (scripts/verify.sh does, ten
// times over) to validate the sharing contract: each evaluation makes an
// evaluator of its own, and the session's model is the only evaluation
// state in-flight requests share.
func TestConcurrentMixedRequests(t *testing.T) {
	svc := New(Config{})
	ctx := context.Background()

	// A pool of formulas with known verdicts, mixing cache hits, misses,
	// probability operators and temporal operators.
	formulas := []struct {
		f     string
		valid bool
	}{
		{"F (K1^1/2 heads)", true},
		{"K1^1/2 heads", false},
		{"heads | tails", true},
		{"heads", false},
		{"K3 heads | K3 tails | K1^1/2 heads | !heads | heads", true},
		{"Pr1(heads) >= 1", false},
		{"G (Pr2(heads) <= 1/2)", true},
	}

	const goroutines = 48
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%3 == 0 {
				// Batch request over every formula.
				all := make([]string, len(formulas))
				for i, tc := range formulas {
					all[i] = tc.f
				}
				items, err := svc.Batch(ctx, BatchRequest{System: "introcoin", Formulas: all})
				if err != nil {
					errc <- err
					return
				}
				for i, item := range items {
					if item.Error != "" {
						errc <- fmt.Errorf("batch[%d] %q: %s", i, item.Formula, item.Error)
						return
					}
					if item.Verdict.Valid != formulas[i].valid {
						errc <- fmt.Errorf("batch[%d] %q: valid=%v, want %v", i, item.Formula, item.Verdict.Valid, formulas[i].valid)
						return
					}
				}
			} else {
				// Sequential checks, rotating the starting formula so
				// goroutines contend on different entries.
				for k := 0; k < len(formulas); k++ {
					tc := formulas[(g+k)%len(formulas)]
					v, err := svc.Check(ctx, CheckRequest{System: "introcoin", Formula: tc.f})
					if err != nil {
						errc <- fmt.Errorf("check %q: %w", tc.f, err)
						return
					}
					if v.Valid != tc.valid {
						errc <- fmt.Errorf("check %q: valid=%v, want %v", tc.f, v.Valid, tc.valid)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	st := svc.Stats()
	if st.Cache.Hits == 0 {
		t.Error("no cache hits across concurrent identical requests")
	}
	if len(st.Pools) != 1 {
		t.Fatalf("pools = %+v, want one", st.Pools)
	}
	p := st.Pools[0]
	if p.Created == 0 {
		t.Error("pool never built an evaluator")
	}
	if p.Created != st.Eval.Evals {
		t.Errorf("pool built %d evaluators for %d evaluations, want one each", p.Created, st.Eval.Evals)
	}
}

// TestConcurrentUploadsAndChecks races uploads of the same document under
// many names against checks through those names: the store must dedupe to
// one session without losing requests.
func TestConcurrentUploadsAndChecks(t *testing.T) {
	svc := New(Config{})
	doc := introDoc(t)
	ctx := context.Background()

	const uploaders = 16
	var wg sync.WaitGroup
	errc := make(chan error, uploaders)
	for g := 0; g < uploaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("coin-%d", g%4) // contend on 4 names
			if _, err := svc.Upload(name, doc); err != nil {
				errc <- err
				return
			}
			if _, err := svc.Check(ctx, CheckRequest{System: name, Formula: "F (K1^1/2 heads)"}); err != nil {
				errc <- err
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := svc.Stats().Systems; got != 1 {
		t.Fatalf("store holds %d sessions, want 1", got)
	}
	if got := len(svc.Systems()); got != 4 {
		t.Fatalf("store lists %d names, want 4 aliases", got)
	}
}
