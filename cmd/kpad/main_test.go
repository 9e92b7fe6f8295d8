package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kpa/internal/canon"
	"kpa/internal/encode"
	"kpa/internal/service"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(newHandler(service.New(service.Config{}), 10*time.Second, 1<<16))
	t.Cleanup(srv.Close)
	return srv
}

// postJSON posts the value and decodes the response into out (if non-nil),
// returning the status code.
func postJSON(t *testing.T, url string, in any, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s response: %v", url, err)
	}
	return resp.StatusCode
}

// TestEndToEnd walks the acceptance path: load a registry system and an
// uploaded JSON system, check a paper formula on introcoin, and observe the
// verdict-cache hit for the repeated request in /v1/stats.
func TestEndToEnd(t *testing.T) {
	srv := newTestServer(t)

	// Check a formula from the paper's introduction on a registry system.
	checkReq := map[string]string{"system": "introcoin", "formula": "K1^1/2 heads"}
	var v service.Verdict
	if code := postJSON(t, srv.URL+"/v1/check", checkReq, &v); code != http.StatusOK {
		t.Fatalf("/v1/check status %d", code)
	}
	if v.Valid || v.HoldsAt != 2 || v.Points != 4 {
		t.Fatalf("K1^1/2 heads verdict: %+v, want holds at 2/4", v)
	}
	if v.Cached {
		t.Fatal("first request reported cached")
	}
	if v.Formula != "K1 (Pr1(heads) >= 1/2)" {
		t.Fatalf("canonical formula %q", v.Formula)
	}

	// The identical request again: served from the verdict cache.
	if code := postJSON(t, srv.URL+"/v1/check", checkReq, &v); code != http.StatusOK {
		t.Fatalf("repeat /v1/check status %d", code)
	}
	if !v.Cached {
		t.Fatal("second request not served from cache")
	}
	var stats service.Stats
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("/v1/stats status %d", code)
	}
	if stats.Cache.Hits != 1 || stats.Cache.Misses != 1 || stats.Checks != 2 {
		t.Fatalf("stats after repeat: %+v, want 1 hit / 1 miss / 2 checks", stats)
	}

	// Upload the same system as a JSON document under a new name; the
	// store dedupes by content hash, so the alias shares the cache.
	doc := encode.Encode(canon.IntroCoin())
	doc.Props = map[string]encode.PropDoc{"heads": {EnvHasSuffix: "h"}}
	var info service.SystemInfo
	code := postJSON(t, srv.URL+"/v1/systems", map[string]any{"name": "mycoin", "doc": doc}, &info)
	if code != http.StatusCreated {
		t.Fatalf("/v1/systems upload status %d", code)
	}
	if info.Name != "mycoin" || info.Source != "registry" {
		// Source stays "registry": the upload aliased the loaded session.
		t.Fatalf("upload info %+v", info)
	}
	if code := postJSON(t, srv.URL+"/v1/check",
		map[string]string{"system": "mycoin", "formula": "K1^1/2 heads"}, &v); code != http.StatusOK {
		t.Fatalf("check on uploaded system status %d", code)
	}
	if !v.Cached || v.System != "mycoin" {
		t.Fatalf("aliased check %+v, want cached verdict under mycoin", v)
	}

	// Both names are listed; one underlying session.
	var systems struct {
		Systems []service.SystemInfo `json:"systems"`
	}
	if code := getJSON(t, srv.URL+"/v1/systems", &systems); code != http.StatusOK {
		t.Fatalf("/v1/systems status %d", code)
	}
	if len(systems.Systems) != 2 {
		t.Fatalf("systems: %+v, want introcoin + mycoin", systems.Systems)
	}
	if systems.Systems[0].Hash != systems.Systems[1].Hash {
		t.Fatal("aliases report different hashes")
	}
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("/v1/stats status %d", code)
	}
	if stats.Systems != 1 {
		t.Fatalf("stats.Systems = %d, want 1 deduped session", stats.Systems)
	}
}

func TestBatchEndpoint(t *testing.T) {
	srv := newTestServer(t)
	var out struct {
		Items []service.BatchItem `json:"items"`
	}
	code := postJSON(t, srv.URL+"/v1/batch", map[string]any{
		"system":   "die",
		"assign":   "fut",
		"formulas": []string{"K2 ((Pr2(even) >= 1) | (Pr2(even) <= 0))", "even", "bogus("},
	}, &out)
	if code != http.StatusOK {
		t.Fatalf("/v1/batch status %d", code)
	}
	if len(out.Items) != 3 {
		t.Fatalf("items: %+v", out.Items)
	}
	// §5: under the future assignment p2 knows the die's parity is decided.
	if out.Items[0].Verdict == nil || !out.Items[0].Verdict.Valid {
		t.Fatalf("item 0: %+v", out.Items[0])
	}
	if out.Items[1].Verdict == nil || out.Items[1].Verdict.Valid {
		t.Fatalf("item 1: %+v", out.Items[1])
	}
	if out.Items[2].Error == "" {
		t.Fatalf("item 2: %+v", out.Items[2])
	}
}

func TestHTTPErrors(t *testing.T) {
	srv := newTestServer(t)
	var errBody struct {
		Error string `json:"error"`
	}

	// Unknown system → 404.
	code := postJSON(t, srv.URL+"/v1/check", map[string]string{"system": "nope", "formula": "true"}, &errBody)
	if code != http.StatusNotFound || !strings.Contains(errBody.Error, "unknown system") {
		t.Fatalf("unknown system: %d %+v", code, errBody)
	}
	// Parse error → 400.
	code = postJSON(t, srv.URL+"/v1/check", map[string]string{"system": "introcoin", "formula": "(("}, &errBody)
	if code != http.StatusBadRequest {
		t.Fatalf("parse error status %d", code)
	}
	// Malformed JSON → 400.
	resp, err := http.Post(srv.URL+"/v1/check", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status %d", resp.StatusCode)
	}
	// Wrong method → 405.
	resp, err = http.Get(srv.URL + "/v1/check")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/check status %d", resp.StatusCode)
	}
	// Oversized body → 413 (server caps at 64 KiB in newTestServer).
	big := fmt.Sprintf(`{"system":"introcoin","formula":"%s true"}`, strings.Repeat("!", 1<<17))
	resp, err = http.Post(srv.URL+"/v1/check", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d", resp.StatusCode)
	}
	// Upload with a reserved registry name → 400.
	code = postJSON(t, srv.URL+"/v1/systems", map[string]any{"name": "die", "doc": map[string]any{}}, &errBody)
	if code != http.StatusBadRequest || !strings.Contains(errBody.Error, "reserved") {
		t.Fatalf("reserved name: %d %+v", code, errBody)
	}
}

// TestRequestTimeout drives a request through a handler whose per-request
// timeout is too small for the evaluation, expecting 504.
func TestRequestTimeout(t *testing.T) {
	srv := httptest.NewServer(newHandler(service.New(service.Config{}), time.Nanosecond, 1<<16))
	defer srv.Close()
	var errBody struct {
		Error string `json:"error"`
	}
	code := postJSON(t, srv.URL+"/v1/check",
		map[string]string{"system": "async:8", "formula": "K1^1/2 lastHeads"}, &errBody)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timeout status %d (%+v)", code, errBody)
	}
}

// TestStatsEngineBlock pins the JSON shape of the /v1/stats engine block:
// the configured parallelism budget plus the three activity counters, under
// exactly these key names — the block is part of the service's public
// surface and kpabench's trace mode reads it.
func TestStatsEngineBlock(t *testing.T) {
	svc := service.New(service.Config{Parallelism: 4})
	srv := httptest.NewServer(newHandler(svc, 10*time.Second, 1<<16))
	t.Cleanup(srv.Close)

	var v service.Verdict
	// C_G^α is the one operator that spins fixpoint rounds (C_G is a
	// single sweep over the group's component partition).
	req := map[string]string{"system": "introcoin", "formula": "C{1,2}^1/2 (heads | !heads)"}
	if code := postJSON(t, srv.URL+"/v1/check", req, &v); code != http.StatusOK {
		t.Fatalf("/v1/check status %d", code)
	}

	var raw struct {
		Engine map[string]json.Number `json:"engine"`
	}
	if code := getJSON(t, srv.URL+"/v1/stats", &raw); code != http.StatusOK {
		t.Fatalf("/v1/stats status %d", code)
	}
	if raw.Engine == nil {
		t.Fatal("/v1/stats has no engine block")
	}
	for _, key := range []string{"parallelism", "shardRounds", "parallelPaths", "serialPaths"} {
		if _, ok := raw.Engine[key]; !ok {
			t.Fatalf("engine block missing %q: %+v", key, raw.Engine)
		}
	}
	if len(raw.Engine) != 4 {
		t.Fatalf("engine block has unexpected keys: %+v", raw.Engine)
	}
	if got := raw.Engine["parallelism"].String(); got != "4" {
		t.Fatalf("engine.parallelism = %s, want the configured 4", got)
	}
	// The 4-point introcoin system is far below the sharding threshold, so
	// the check above must have taken serial paths and spun fixpoint rounds.
	if sr, _ := raw.Engine["shardRounds"].Int64(); sr == 0 {
		t.Fatal("engine.shardRounds is 0 after a probabilistic common-knowledge check")
	}
	if sp, _ := raw.Engine["serialPaths"].Int64(); sp == 0 {
		t.Fatal("engine.serialPaths is 0 after a small-system check")
	}
}
