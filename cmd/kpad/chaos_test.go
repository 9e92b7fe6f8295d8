package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"kpa/internal/faultinject"
	"kpa/internal/service"
)

// chaosStatusOK is the closed set of statuses the daemon may emit under
// fault injection. Anything else — a 200 with an error body, a bare 502, a
// hung connection — is a containment failure.
func chaosStatusOK(code int) bool {
	switch code {
	case http.StatusOK,
		http.StatusBadRequest,
		http.StatusNotFound,
		499, // client closed request
		http.StatusInternalServerError,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// TestChaosHTTPDaemon runs the full daemon under a seeded injector — slow
// evaluator set-ups, periodic evaluator panics, a starved admission queue —
// and mixed concurrent HTTP traffic. Every response must be well-formed
// JSON with a status from the taxonomy; error bodies must carry a kind;
// 503s must carry Retry-After; and afterwards /v1/stats must reconcile
// with the injector and /healthz must still answer.
func TestChaosHTTPDaemon(t *testing.T) {
	inj := faultinject.New(1989)
	inj.Set("pool.get", faultinject.Plan{Every: 1, Latency: 20 * time.Millisecond})
	inj.Set("eval", faultinject.Plan{Every: 5, PanicMsg: "chaos"})
	svc := service.New(service.Config{
		MaxInFlight: 1,
		QueueWait:   5 * time.Millisecond,
		Seams: &service.Seams{
			BeforePoolGet: inj.Func("pool.get"),
			BeforeEval:    func(string) error { return inj.Hit("eval") },
		},
	})
	srv := httptest.NewServer(newHandler(svc, 2*time.Second, 1<<16))
	defer srv.Close()

	// Distinct formulas defeat the cache and singleflight, so the single
	// slow evaluation slot stays contended and admission control sheds.
	requests := make([]string, 0, 40)
	for i := 0; i < 30; i++ {
		requests = append(requests,
			fmt.Sprintf(`{"system":"introcoin","formula":"K1^1/%d heads"}`, i+2))
	}
	requests = append(requests,
		`{"system":"introcoin","formula":"(("`,               // 400
		`{"system":"no-such-system","formula":"heads"}`,      // 404
		`{"system":"introcoin","formula":"heads","bogus":1}`, // 400 strict decode
		`{"system":"die","formula":"K2 even"}`,
	)

	type tally struct {
		mu     sync.Mutex
		counts map[int]int
	}
	seen := tally{counts: make(map[int]int)}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < len(requests); i++ {
				body := requests[(g+i)%len(requests)]
				resp, err := http.Post(srv.URL+"/v1/check", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("chaos POST: %v", err)
					continue
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if !chaosStatusOK(resp.StatusCode) {
					t.Errorf("status %d outside the taxonomy (body %s)", resp.StatusCode, raw)
				}
				var payload map[string]any
				if err := json.Unmarshal(raw, &payload); err != nil {
					t.Errorf("status %d with non-JSON body %q: %v", resp.StatusCode, raw, err)
				}
				if resp.StatusCode != http.StatusOK {
					if payload["error"] == "" || payload["kind"] == "" {
						t.Errorf("status %d error body without error/kind: %s", resp.StatusCode, raw)
					}
				}
				if resp.StatusCode == http.StatusServiceUnavailable {
					ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
					if err != nil || ra < 1 {
						t.Errorf("503 Retry-After %q, want an integer >= 1", resp.Header.Get("Retry-After"))
					}
				}
				seen.mu.Lock()
				seen.counts[resp.StatusCode]++
				seen.mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	// The run must actually have exercised the degraded paths.
	if seen.counts[http.StatusOK] == 0 || seen.counts[http.StatusServiceUnavailable] == 0 {
		t.Fatalf("chaos traffic too tame: status counts %v", seen.counts)
	}
	if inj.Fired("eval") == 0 {
		t.Fatalf("no panics fired: %+v", inj.Snapshot())
	}

	// Stats reconcile over HTTP and the daemon still reports healthy.
	var stats service.Stats
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("/v1/stats status %d", code)
	}
	if stats.Resilience.Panics != inj.Fired("eval") {
		t.Fatalf("stats panics = %d, injector fired %d", stats.Resilience.Panics, inj.Fired("eval"))
	}
	if stats.Resilience.Sheds == 0 {
		t.Fatalf("no sheds recorded despite 503s: %+v", stats.Resilience)
	}
	var health struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz after chaos: %d %+v", code, health)
	}
}
