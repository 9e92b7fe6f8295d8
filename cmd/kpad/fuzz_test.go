package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"kpa/internal/canon"
	"kpa/internal/encode"
	"kpa/internal/gen"
	"kpa/internal/service"
)

// fuzzPaths are the JSON endpoints FuzzHandlers drives; an input's first
// byte picks one.
var fuzzPaths = []string{"/v1/systems", "/v1/check", "/v1/batch"}

// refuseLarge keeps fuzzing fast and small: registry systems that take
// more than a few milliseconds to build (scale:TIER, async:N for N > 4)
// are refused as unknown, the error a client naming a missing system gets.
func refuseLarge(name string) error {
	large := strings.HasPrefix(name, "scale:")
	if rest, ok := strings.CutPrefix(name, "async:"); ok {
		n, err := strconv.Atoi(rest)
		large = err == nil && n > 4
	}
	if large {
		return &service.Error{Kind: service.KindNotFound, Msg: "fuzz: " + name + " is not loaded"}
	}
	return nil
}

// uploadSeeds are the fuzz targets' POST /v1/systems bodies, each under
// 8 KiB: two small uploads, an empty doc under a reserved name, and the
// first 8 KiB − 1 of a bench-shaped upload.
func uploadSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	coin := encode.Encode(canon.IntroCoin())
	coin.Props = map[string]encode.PropDoc{"heads": {EnvHasSuffix: "h"}}
	broom := encode.Encode(gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 3, NumRuns: 4, RunLen: 4, Buckets: 2}))
	broom.Props = map[string]encode.PropDoc{"p0": {EnvContains: "r1"}}
	var bodies [][]byte
	for _, v := range []any{
		map[string]any{"name": "mycoin", "doc": coin},
		map[string]any{"name": "die", "doc": map[string]any{}},
		map[string]any{"name": "broom", "doc": broom},
		map[string]any{"name": "broom", "doc": encode.Encode(
			gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 3, NumRuns: 64, RunLen: 8, Buckets: 16}))},
	} {
		data, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, data[:min(len(data), 8<<10-1)])
	}
	return bodies
}

// FuzzHandlers posts arbitrary bodies of up to 8 KiB to kpad's JSON
// endpoints, each against a fresh service. No reply may be a 500, and
// every non-2xx reply must be a JSON object carrying an "error" string.
// Plain `go test` replays the seeds: main_test.go's request bodies and a
// bench-shaped upload, whole and truncated; `make fuzz` explores further.
func FuzzHandlers(f *testing.F) {
	add := func(path string, body any) {
		data, err := json.Marshal(body)
		if err != nil || len(data) >= 8<<10 {
			f.Fatalf("seed for %s: %d bytes, %v", path, len(data), err)
		}
		for i, p := range fuzzPaths {
			if p == path {
				f.Add(append([]byte{byte(i)}, data...))
			}
		}
	}
	for _, body := range uploadSeeds(f) {
		f.Add(append([]byte{0}, body...))
	}
	add("/v1/check", map[string]string{"system": "introcoin", "formula": "K1^1/2 heads"})
	add("/v1/check", map[string]string{"system": "nope", "formula": "true"})
	add("/v1/check", map[string]string{"system": "introcoin", "formula": "(("})
	add("/v1/check", map[string]string{"system": "async:8", "formula": "K1^1/2 lastHeads"})
	add("/v1/batch", map[string]any{
		"system":   "die",
		"assign":   "fut",
		"formulas": []string{"K2 ((Pr2(even) >= 1) | (Pr2(even) <= 0))", "even", "bogus("},
	})
	f.Add([]byte("\x01{"))
	f.Add([]byte("\x02[]"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 8<<10 {
			return
		}
		path := fuzzPaths[int(data[0])%len(fuzzPaths)]
		svc := service.New(service.Config{Seams: &service.Seams{BeforeStoreGet: refuseLarge}})
		rec := httptest.NewRecorder()
		newDaemon(svc, time.Second, 1<<16).handler().ServeHTTP(rec,
			httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data[1:])))
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("POST %s: 500 %s", path, rec.Body)
		}
		if rec.Code < 300 {
			return
		}
		var reply struct {
			Error *string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply.Error == nil || *reply.Error == "" {
			t.Fatalf("POST %s: %d reply is not a JSON object with an error: %s", path, rec.Code, rec.Body)
		}
	})
}
