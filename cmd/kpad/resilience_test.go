package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"kpa/internal/canon"
	"kpa/internal/encode"
	"kpa/internal/service"
)

// errorBody is the wire shape of every kpad error response.
type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// postRaw posts a raw body and returns the response; the caller closes it.
func postRaw(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestReadJSONStrict is the table-driven contract of the hardened request
// decoder: exactly one JSON object, no unknown fields, no trailing data.
func TestReadJSONStrict(t *testing.T) {
	srv := newTestServer(t)
	valid := `{"system":"introcoin","formula":"heads"}`
	cases := []struct {
		name    string
		body    string
		status  int
		wantErr string // substring of the error body, "" for success
	}{
		{"valid object", valid, http.StatusOK, ""},
		{"trailing whitespace ok", valid + "\n\t \n", http.StatusOK, ""},
		{"unknown field", `{"system":"introcoin","formula":"heads","bogus":1}`, http.StatusBadRequest, "unknown field"},
		{"trailing object", valid + ` {"again":true}`, http.StatusBadRequest, "trailing data"},
		{"trailing scalar", valid + ` 42`, http.StatusBadRequest, "trailing data"},
		{"concatenated copies", valid + valid, http.StatusBadRequest, "trailing data"},
		{"empty body", ``, http.StatusBadRequest, "bad JSON"},
		{"truncated object", `{"system":`, http.StatusBadRequest, "bad JSON"},
		{"array not object", `[1,2,3]`, http.StatusBadRequest, "bad JSON"},
		{"wrong field type", `{"system":7,"formula":"heads"}`, http.StatusBadRequest, "bad JSON"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postRaw(t, srv.URL+"/v1/check", tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if tc.wantErr == "" {
				return
			}
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatalf("error response is not JSON: %v", err)
			}
			if !strings.Contains(eb.Error, tc.wantErr) {
				t.Fatalf("error %q does not mention %q", eb.Error, tc.wantErr)
			}
		})
	}
}

// TestHealthAndReadiness walks the probe endpoints through a drain:
// liveness stays up while readiness flips to 503.
func TestHealthAndReadiness(t *testing.T) {
	d := newDaemon(service.New(service.Config{}), time.Second, 1<<16)
	srv := httptest.NewServer(d.handler())
	defer srv.Close()

	var health struct {
		Status        string `json:"status"`
		UptimeSeconds *int64 `json:"uptimeSeconds"`
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK || health.Status != "ok" || health.UptimeSeconds == nil {
		t.Fatalf("healthz: %d %+v", code, health)
	}
	var ready struct {
		Status  string `json:"status"`
		Systems int    `json:"systems"`
	}
	if code := getJSON(t, srv.URL+"/readyz", &ready); code != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("readyz: %d %+v", code, ready)
	}

	// A daemon booted with a snapshot dir starts in the restoring state:
	// unready, but with a body that tells the balancer to wait rather than
	// reroute — the warm cache is seconds away.
	d.state.Store(stateRestoring)
	if code := getJSON(t, srv.URL+"/readyz", &ready); code != http.StatusServiceUnavailable || ready.Status != "restoring" {
		t.Fatalf("restoring readyz: %d %+v", code, ready)
	}
	// Restore completion only publishes readiness when nothing else moved
	// the state meanwhile (the CAS in run's restore goroutine).
	d.state.CompareAndSwap(stateRestoring, stateReady)
	if code := getJSON(t, srv.URL+"/readyz", &ready); code != http.StatusOK || ready.Status != "ready" {
		t.Fatalf("post-restore readyz: %d %+v", code, ready)
	}

	d.state.Store(stateDraining) // what the signal handler does before Shutdown
	if code := getJSON(t, srv.URL+"/readyz", &ready); code != http.StatusServiceUnavailable || ready.Status != "draining" {
		t.Fatalf("draining readyz: %d %+v", code, ready)
	}
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz during drain: %d", code)
	}
	// SIGTERM during restore: draining wins and the CAS must not revive
	// readiness afterwards.
	d.state.Store(stateRestoring)
	d.state.Store(stateDraining)
	d.state.CompareAndSwap(stateRestoring, stateReady)
	if code := getJSON(t, srv.URL+"/readyz", &ready); code != http.StatusServiceUnavailable || ready.Status != "draining" {
		t.Fatalf("drain-during-restore readyz: %d %+v", code, ready)
	}
}

// TestErrorTaxonomyStatuses checks the Kind → HTTP status mapping end to
// end for the kinds the older string-matching writeError could not carry:
// overload (with Retry-After), contained panics, upload conflicts, and the
// kind field on plain not-found errors.
func TestErrorTaxonomyStatuses(t *testing.T) {
	t.Run("overloaded 503 with Retry-After", func(t *testing.T) {
		started := make(chan struct{})
		release := make(chan struct{})
		var once sync.Once
		svc := service.New(service.Config{
			MaxInFlight: 1,
			QueueWait:   5 * time.Millisecond,
			Seams: &service.Seams{BeforeEval: func(string) error {
				once.Do(func() { close(started) })
				<-release
				return nil
			}},
		})
		srv := httptest.NewServer(newHandler(svc, 10*time.Second, 1<<16))
		defer srv.Close()
		var releaseOnce sync.Once
		unblock := func() { releaseOnce.Do(func() { close(release) }) }
		defer unblock()

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postRaw(t, srv.URL+"/v1/check", `{"system":"introcoin","formula":"heads"}`)
			resp.Body.Close()
		}()
		<-started // the only evaluation slot is now held open

		resp := postRaw(t, srv.URL+"/v1/check", `{"system":"introcoin","formula":"!heads"}`)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != "1" {
			t.Fatalf("Retry-After %q, want %q (the service's fixed 1s hint)", got, "1")
		}
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Kind != "overloaded" {
			t.Fatalf("body %+v (err %v), want kind overloaded", eb, err)
		}
		unblock()
		wg.Wait()
	})

	t.Run("panic 500", func(t *testing.T) {
		svc := service.New(service.Config{Seams: &service.Seams{
			BeforeEval: func(string) error { panic("injected crash") },
		}})
		srv := httptest.NewServer(newHandler(svc, 10*time.Second, 1<<16))
		defer srv.Close()
		resp := postRaw(t, srv.URL+"/v1/check", `{"system":"introcoin","formula":"heads"}`)
		defer resp.Body.Close()
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusInternalServerError || eb.Kind != "panic" {
			t.Fatalf("contained panic: %d %+v, want 500/panic", resp.StatusCode, eb)
		}
	})

	t.Run("upload conflict 409", func(t *testing.T) {
		srv := newTestServer(t)
		docA := encode.Encode(canon.IntroCoin())
		docB := encode.Encode(canon.Die())
		if code := postJSON(t, srv.URL+"/v1/systems", map[string]any{"name": "clash", "doc": docA}, nil); code != http.StatusCreated {
			t.Fatalf("first upload status %d", code)
		}
		var eb errorBody
		code := postJSON(t, srv.URL+"/v1/systems", map[string]any{"name": "clash", "doc": docB}, &eb)
		if code != http.StatusConflict || eb.Kind != "conflict" {
			t.Fatalf("conflicting upload: %d %+v, want 409/conflict", code, eb)
		}
	})

	t.Run("not found carries kind", func(t *testing.T) {
		srv := newTestServer(t)
		var eb errorBody
		code := postJSON(t, srv.URL+"/v1/check", map[string]string{"system": "nope", "formula": "heads"}, &eb)
		if code != http.StatusNotFound || eb.Kind != "not_found" {
			t.Fatalf("unknown system: %d %+v, want 404/not_found", code, eb)
		}
	})

	t.Run("timeout carries kind", func(t *testing.T) {
		srv := httptest.NewServer(newHandler(service.New(service.Config{}), time.Nanosecond, 1<<16))
		defer srv.Close()
		var eb errorBody
		code := postJSON(t, srv.URL+"/v1/check", map[string]string{"system": "introcoin", "formula": "heads"}, &eb)
		if code != http.StatusGatewayTimeout || eb.Kind != "timeout" {
			t.Fatalf("timeout: %d %+v, want 504/timeout", code, eb)
		}
	})
}
