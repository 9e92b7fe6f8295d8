package service

import (
	"context"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"kpa/internal/canon"
	"kpa/internal/encode"
	"kpa/internal/logic"
	"kpa/internal/registry"
	"kpa/internal/system"
)

// introDoc returns the introduction's coin system as an encode document, so
// tests can exercise the upload path with a system whose verdicts are known.
func introDoc(t *testing.T) []byte {
	t.Helper()
	doc := encode.Encode(canon.IntroCoin())
	doc.Props = map[string]encode.PropDoc{
		"heads": {EnvHasSuffix: "h"},
	}
	data, err := encode.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCheckPaperFormula(t *testing.T) {
	svc := New(Config{})
	ctx := context.Background()

	// The introduction's theorem: after the toss, p1 assigns probability
	// 1/2 to heads — and knows it. Before the toss it does not, so the
	// formula holds at exactly the two time-1 points.
	v, err := svc.Check(ctx, CheckRequest{System: "introcoin", Formula: "K1^1/2 heads"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Valid || v.HoldsAt != 2 || v.Points != 4 || v.CounterTotal != 2 {
		t.Fatalf("K1^1/2 heads on introcoin: %+v, want holds at 2/4", v)
	}
	if v.Cached {
		t.Fatal("first check reported Cached")
	}
	if v.Assignment != "post" {
		t.Fatalf("Assignment = %q, want post", v.Assignment)
	}

	// Eventually p1 knows the probability is 1/2 — at every point.
	ev, err := svc.Check(ctx, CheckRequest{System: "introcoin", Formula: "F (K1^1/2 heads)"})
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Valid {
		t.Fatalf("F (K1^1/2 heads) should be valid on introcoin: %+v", ev)
	}

	// Second identical request must come from the verdict cache.
	v2, err := svc.Check(ctx, CheckRequest{System: "introcoin", Formula: "K1^1/2 heads"})
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Cached {
		t.Fatal("second check not served from cache")
	}
	st := svc.Stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 2 {
		t.Fatalf("cache stats = %+v, want 1 hit / 2 misses", st.Cache)
	}
}

func TestCheckCanonicalFormulaSharing(t *testing.T) {
	svc := New(Config{})
	ctx := context.Background()
	if _, err := svc.Check(ctx, CheckRequest{System: "introcoin", Formula: "K1^1/2 heads"}); err != nil {
		t.Fatal(err)
	}
	// Same formula, different spelling: the cache key is the canonical
	// rendering, so this is a hit.
	v, err := svc.Check(ctx, CheckRequest{System: "introcoin", Formula: "  K1^0.5   heads "})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Cached {
		t.Fatal("canonically-equal formula missed the cache")
	}
}

func TestCheckNotValidCounterexamples(t *testing.T) {
	svc := New(Config{})
	// async:3 has 32 points, all of them counterexamples to false.
	v, err := svc.Check(context.Background(), CheckRequest{System: "async:3", Formula: "false"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Valid {
		t.Fatal("'false' cannot be valid")
	}
	if v.CounterTotal != 32 || len(v.CounterExamples) != maxCounterexamples {
		t.Fatalf("counterexamples not bounded: total=%d listed=%d, want 32 and %d",
			v.CounterTotal, len(v.CounterExamples), maxCounterexamples)
	}
}

func TestCheckErrors(t *testing.T) {
	svc := New(Config{})
	ctx := context.Background()
	cases := []struct {
		name string
		req  CheckRequest
		want string
	}{
		{"unknown system", CheckRequest{System: "nope", Formula: "true"}, "unknown system"},
		{"parse error", CheckRequest{System: "introcoin", Formula: "K1^ heads ("}, "logic"},
		{"unknown prop", CheckRequest{System: "introcoin", Formula: "K1 nosuchprop"}, "unknown proposition"},
		{"bad assignment", CheckRequest{System: "introcoin", Assign: "zeta", Formula: "true"}, "unknown assignment"},
		{"bad agent", CheckRequest{System: "introcoin", Formula: "K9 heads"}, "agent"},
	}
	for _, tc := range cases {
		_, err := svc.Check(ctx, tc.req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestUploadDedupesByHash(t *testing.T) {
	svc := New(Config{})
	ctx := context.Background()

	// Load introcoin from the registry, then upload the same system as
	// JSON under another name: the store must alias, not copy.
	if _, err := svc.Load("introcoin"); err != nil {
		t.Fatal(err)
	}
	info, err := svc.Upload("mycoin", introDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := svc.Load("introcoin")
	if err != nil {
		t.Fatal(err)
	}
	if info.Hash != reg.Hash {
		t.Fatalf("uploaded copy of introcoin hashes differently: %s vs %s", info.Hash, reg.Hash)
	}
	if got := svc.Stats().Systems; got != 1 {
		t.Fatalf("store holds %d sessions, want 1 (deduped)", got)
	}

	// The alias shares the verdict cache: a check under either name after
	// a check under the other is a hit. (The uploaded doc's props replace
	// the registry's, but "heads" exists in both with the same extension.)
	if _, err := svc.Check(ctx, CheckRequest{System: "introcoin", Formula: "K1^1/2 heads"}); err != nil {
		t.Fatal(err)
	}
	v, err := svc.Check(ctx, CheckRequest{System: "mycoin", Formula: "K1^1/2 heads"})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Cached {
		t.Fatal("aliased name missed the shared cache")
	}
	if v.System != "mycoin" {
		t.Fatalf("verdict reports system %q, want requested alias mycoin", v.System)
	}

	// Idempotent re-upload is fine; same name with different content is not.
	if _, err := svc.Upload("mycoin", introDoc(t)); err != nil {
		t.Fatalf("idempotent re-upload: %v", err)
	}
	other, err := encode.Marshal(encode.Encode(canon.Die()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Upload("mycoin", other); err == nil {
		t.Fatal("renaming a different system onto mycoin succeeded")
	}
	// Registry names cannot be shadowed.
	if _, err := svc.Upload("die", introDoc(t)); err == nil {
		t.Fatal("shadowing a registry name succeeded")
	}
}

// TestUploadReservedNameBuildsNothing uploads under a scale tier's name.
// The name is refused as reserved, and refusing it must not build the
// million-point system the name stands for.
func TestUploadReservedNameBuildsNothing(t *testing.T) {
	svc := New(Config{})
	doc := introDoc(t)
	// The least of three tries, so no other goroutine's allocations can
	// fail the test.
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := svc.Upload("scale:1m", doc)
		runtime.ReadMemStats(&after)
		if KindOf(err) != KindBadRequest {
			t.Fatalf("Upload(scale:1m): %v (kind %v), want a bad request", err, KindOf(err))
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 1<<20 {
		t.Fatalf("refusing a reserved name allocated %d bytes, want under 1 MB", least)
	}
}

func TestBatch(t *testing.T) {
	svc := New(Config{})
	items, err := svc.Batch(context.Background(), BatchRequest{
		System: "introcoin",
		Formulas: []string{
			"F (K1^1/2 heads)",
			"heads",
			"K1 oops(",
			"K1 nosuchprop",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 4 {
		t.Fatalf("got %d items", len(items))
	}
	if items[0].Verdict == nil || !items[0].Verdict.Valid {
		t.Fatalf("item 0: %+v", items[0])
	}
	if items[1].Verdict == nil || items[1].Verdict.Valid {
		t.Fatalf("item 1: %+v", items[1])
	}
	if items[2].Error == "" || items[3].Error == "" {
		t.Fatalf("formula-level errors not reported: %+v %+v", items[2], items[3])
	}

	// Whole-batch failures.
	if _, err := svc.Batch(context.Background(), BatchRequest{System: "introcoin"}); err == nil {
		t.Fatal("empty batch succeeded")
	}
	if _, err := svc.Batch(context.Background(), BatchRequest{System: "nope", Formulas: []string{"true"}}); err == nil {
		t.Fatal("unknown system batch succeeded")
	}
	big := make([]string, 2048)
	for i := range big {
		big[i] = "true"
	}
	if _, err := svc.Batch(context.Background(), BatchRequest{System: "introcoin", Formulas: big}); err == nil {
		t.Fatal("oversized batch succeeded")
	}
}

func TestCheckContextCancelled(t *testing.T) {
	svc := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Check(ctx, CheckRequest{System: "introcoin", Formula: "K1^1/2 heads"}); err == nil {
		t.Fatal("check with cancelled context succeeded")
	}
}

// TestPoolWarmReuse: every evaluation makes an evaluator of its own over
// the session's one model entry, and a cache hit makes none.
func TestPoolWarmReuse(t *testing.T) {
	svc := New(Config{})
	ctx := context.Background()
	// Distinct formulas so the verdict cache cannot absorb the requests:
	// each is an evaluation, and each makes its own evaluator.
	for _, f := range []string{"K1^1/2 heads", "K2^1/2 heads", "K1 heads", "heads | tails"} {
		if _, err := svc.Check(ctx, CheckRequest{System: "introcoin", Formula: f}); err != nil {
			t.Fatal(err)
		}
	}
	v, err := svc.Check(ctx, CheckRequest{System: "introcoin", Formula: "K1 heads"})
	if err != nil || !v.Cached {
		t.Fatalf("repeated check: %+v, %v, want a cache hit", v, err)
	}
	st := svc.Stats()
	if len(st.Pools) != 1 {
		t.Fatalf("pools = %+v, want exactly one", st.Pools)
	}
	p := st.Pools[0]
	if p.Created != 4 {
		t.Fatalf("pool stats %+v, want created=4: one evaluator per miss, none for the hit", p)
	}
	if p.System != "introcoin" || p.Assignment != "post" {
		t.Fatalf("pool identity %+v", p)
	}
}

// TestColdCheckoutSharesModel: each evaluation through the service's
// evaluation path makes a new evaluator over the session's model, so the
// second reads the proposition extension the first scanned instead of
// calling the fact again, and evaluations running at once all read it.
func TestColdCheckoutSharesModel(t *testing.T) {
	entry, err := registry.Lookup("introcoin")
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	heads := entry.Props["heads"]
	props := map[string]system.Fact{"heads": system.NewFact("heads", func(p system.Point) bool {
		calls.Add(1)
		return heads.Holds(p)
	})}
	svc := New(Config{})
	sess := newSession("introcoin", "", entry.Sys, props, entry.Description, nil)
	m, err := sess.model("post", svc.engine)
	if err != nil {
		t.Fatal(err)
	}
	const canonical = "K1^1/2 heads"
	check := func(ext **system.DenseSet) func(ev *logic.Evaluator) error {
		return func(ev *logic.Evaluator) error {
			if _, err := ev.DenseExtension(logic.MustParse(canonical)); err != nil {
				return err
			}
			var err error
			*ext, err = ev.DenseExtension(logic.Prop("heads"))
			return err
		}
	}
	exts := make([]*system.DenseSet, 10)
	for k := 0; k < 2; k++ {
		if err := svc.withEvaluator(context.Background(), m, canonical, check(&exts[k])); err != nil {
			t.Fatal(err)
		}
	}
	if n := calls.Load(); n != int64(entry.Sys.NumPoints()) || exts[0] != exts[1] {
		t.Fatalf("two evaluations made %d fact calls (want one scan, %d) and share the extension: %v",
			n, entry.Sys.NumPoints(), exts[0] == exts[1])
	}
	errs := make([]error, len(exts))
	var wg sync.WaitGroup
	for k := 2; k < len(exts); k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = svc.withEvaluator(context.Background(), m, canonical, check(&exts[k]))
		}(k)
	}
	wg.Wait()
	for k, ext := range exts {
		if errs[k] != nil || ext != exts[0] {
			t.Fatalf("evaluation %d: err %v, shares the extension: %v", k, errs[k], ext == exts[0])
		}
	}
	if n := calls.Load(); n != int64(entry.Sys.NumPoints()) {
		t.Fatalf("concurrent evaluations over the warm model made %d fact calls, want none", n-int64(entry.Sys.NumPoints()))
	}
	if got := m.created.Load(); got != uint64(len(exts)) {
		t.Fatalf("created = %d, want %d: one evaluator per evaluation", got, len(exts))
	}
}

func TestEvalStats(t *testing.T) {
	svc := New(Config{})
	ctx := context.Background()
	if _, err := svc.Check(ctx, CheckRequest{System: "introcoin", Formula: "K1 heads"}); err != nil {
		t.Fatal(err)
	}
	// A cache hit must not count as an evaluation.
	if _, err := svc.Check(ctx, CheckRequest{System: "introcoin", Formula: "K1 heads"}); err != nil {
		t.Fatal(err)
	}
	ev := svc.Stats().Eval
	if ev.Evals != 1 {
		t.Fatalf("evals = %d, want 1 (cache hits must not evaluate)", ev.Evals)
	}
	if ev.AvgNanos != ev.TotalNanos {
		t.Fatalf("avg %d != total %d with one eval", ev.AvgNanos, ev.TotalNanos)
	}
}

func TestCacheEviction(t *testing.T) {
	svc := New(Config{CacheSize: 2})
	ctx := context.Background()
	for _, f := range []string{"heads", "tails", "heads & tails"} {
		if _, err := svc.Check(ctx, CheckRequest{System: "introcoin", Formula: f}); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.Cache.Size != 2 || st.Cache.Evictions != 1 {
		t.Fatalf("cache stats %+v, want size=2 evictions=1", st.Cache)
	}
	// "heads" was evicted (LRU), so re-checking it is a miss...
	v, err := svc.Check(ctx, CheckRequest{System: "introcoin", Formula: "heads"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Cached {
		t.Fatal("evicted entry served from cache")
	}
	// ...while "heads & tails" is still resident.
	v, err = svc.Check(ctx, CheckRequest{System: "introcoin", Formula: "heads & tails"})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Cached {
		t.Fatal("resident entry missed the cache")
	}
}
