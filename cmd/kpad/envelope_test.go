package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
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

// referenceEnvelope is the reflective decoder POST /v1/systems used before
// encode.Envelope, kept as its spec: readJSON's strict json.Decoder into a
// name string and a json.RawMessage doc, then nothing but whitespace.
func referenceEnvelope(body []byte) (name string, doc []byte, err error) {
	var req struct {
		Name string          `json:"name"`
		Doc  json.RawMessage `json:"doc"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return "", nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return "", nil, errors.New("trailing data after the request object")
	}
	return req.Name, req.Doc, nil
}

// repeatedKey reports whether the body's top-level object has two keys
// equal under strings.EqualFold, which encoding/json lets the last win.
func repeatedKey(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		k, ok := tok.(string)
		if err != nil || !ok {
			return false
		}
		for _, prev := range keys {
			if strings.EqualFold(prev, k) {
				return true
			}
		}
		keys = append(keys, k)
		var v json.RawMessage
		if dec.Decode(&v) != nil {
			return false
		}
	}
	return false
}

// coinDoc is a valid upload's doc: the introduction's coin.
func coinDoc(t testing.TB) string {
	t.Helper()
	doc := encode.Encode(canon.IntroCoin())
	doc.Props = map[string]encode.PropDoc{"heads": {EnvHasSuffix: "h"}}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestUploadEnvelopeStrict is the table-driven contract of the upload
// envelope, TestReadJSONStrict's rules plus the scan's own: exactly one
// JSON object, no unknown fields, no trailing data, no repeated keys.
func TestUploadEnvelopeStrict(t *testing.T) {
	srv := newTestServer(t)
	doc := coinDoc(t)
	valid := `{"name":"mycoin","doc":` + doc + `}`
	cases := []struct {
		name     string
		body     string
		status   int
		wantErr  string // substring of the error body, "" for success
		wantName string // the name the upload is listed under
	}{
		{"valid object", valid, http.StatusCreated, "", "mycoin"},
		{"trailing whitespace ok", valid + "\n\t \n", http.StatusCreated, "", "mycoin"},
		{"case-folded keys", `{"NAME":"folded","Doc":` + doc + `}`, http.StatusCreated, "", "folded"},
		{"escaped name", `{"name":"esc\u0061ped\"q","doc":` + doc + `}`, http.StatusCreated, "", `escaped"q`},
		{"unknown field", `{"name":"mycoin","doc":` + doc + `,"bogus":1}`, http.StatusBadRequest, "unknown field", ""},
		{"repeated key", `{"name":"a","Name":"b","doc":` + doc + `}`, http.StatusBadRequest, "duplicate key", ""},
		{"trailing object", valid + ` {"again":true}`, http.StatusBadRequest, "trailing data", ""},
		{"trailing scalar", valid + ` 42`, http.StatusBadRequest, "trailing data", ""},
		{"concatenated copies", valid + valid, http.StatusBadRequest, "trailing data", ""},
		{"empty body", ``, http.StatusBadRequest, "bad JSON", ""},
		{"truncated object", `{"name":"mycoin","doc":{"agents":`, http.StatusBadRequest, "bad JSON", ""},
		{"array not object", `[{"name":"mycoin"}]`, http.StatusBadRequest, "bad JSON", ""},
		{"wrong name type", `{"name":7,"doc":` + doc + `}`, http.StatusBadRequest, "bad JSON", ""},
		{"bad doc syntax", `{"name":"mycoin","doc":{"agents":01}}`, http.StatusBadRequest, "bad JSON", ""},
		{"oversized", `{"name":"big","doc":"` + strings.Repeat("x", 1<<17) + `"}`, http.StatusRequestEntityTooLarge, "exceeds", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postRaw(t, srv.URL+"/v1/systems", tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if tc.wantErr == "" {
				var info service.SystemInfo
				if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || info.Name != tc.wantName {
					t.Fatalf("uploaded as %q (%v), want %q", info.Name, err, tc.wantName)
				}
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

// TestUploadEnvelopeDepth checks the nesting bound, which bodies small
// enough to fuzz cannot reach: 10,000 nested arrays and objects, counting
// the envelope, are accepted and one more is not, as by the reference.
func TestUploadEnvelopeDepth(t *testing.T) {
	for _, n := range []int{9999, 10000} {
		for _, nest := range [][2]string{{"[", "]"}, {`{"k":`, "}"}} {
			body := []byte(`{"doc":` + strings.Repeat(nest[0], n) + "0" + strings.Repeat(nest[1], n) + "}")
			_, _, err := encode.Envelope(body)
			_, _, refErr := referenceEnvelope(body)
			if (err == nil) != (refErr == nil) || (err == nil) != (n < 10000) {
				t.Errorf("%d × %s: scan error %v, reference error %v", n, nest[0], err, refErr)
			}
		}
	}
}

// FuzzUploadEnvelope checks encode.Envelope, the scan behind
// POST /v1/systems, against referenceEnvelope on bodies of up to 8 KiB:
//   - a body the reference rejects, the scan rejects;
//   - a body both accept yields the same name and the same doc bytes;
//   - a body only the reference accepts repeats a key.
//
// Plain `go test` replays the seeds: FuzzHandlers' upload bodies and a
// few envelope shapes; `make fuzz` explores further.
func FuzzUploadEnvelope(f *testing.F) {
	for _, body := range uploadSeeds(f) {
		f.Add(body)
	}
	doc := coinDoc(f)
	for _, body := range []string{
		`{"NAME":"x","Doc":` + doc + `}`,
		`{"name":"ab\"c","doc":null}`,
		`{"name":"a","Name":"b"}`,
		`{"doc":[1,-2.5e3,true,false,null,"é\t",{}]} `,
		`{"name":"x","doc":{"a":1}}{"name":"x"}`,
		`{"doc":{"agents":01}}`,
		`null`,
		`[]`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 8<<10 {
			return
		}
		name, doc, err := encode.Envelope(body)
		refName, refDoc, refErr := referenceEnvelope(body)
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("the scan accepted a body the reference rejects: %v", refErr)
		case err == nil:
			if name != refName || !bytes.Equal(doc, refDoc) {
				t.Fatalf("the scan read name %q, doc %q; the reference %q, %q", name, doc, refName, refDoc)
			}
		case refErr == nil && !repeatedKey(body):
			t.Fatalf("the scan rejected a body the reference accepts, with no repeated key: %v", err)
		}
	})
}

// BenchmarkUpload posts a kpabench-shaped upload, 2,048 runs × 8 steps
// over 3 agents with 16 buckets and 4 envContains propositions, through
// kpad's handler to a fresh service per iteration: body read, envelope,
// decode, hash and registration.
func BenchmarkUpload(b *testing.B) {
	doc := encode.Encode(gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 3, NumRuns: 2048, RunLen: 8, Buckets: 16}))
	doc.Props = make(map[string]encode.PropDoc)
	for j := 1; j <= 4; j++ {
		doc.Props["p"+strconv.Itoa(j)] = encode.PropDoc{EnvContains: "." + strconv.Itoa(j)}
	}
	body, err := json.Marshal(struct {
		Name string          `json:"name"`
		Doc  encode.Document `json:"doc"`
	}{"broom", doc})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		newHandler(service.New(service.Config{}), time.Minute, 1<<30).ServeHTTP(rec,
			httptest.NewRequest(http.MethodPost, "/v1/systems", bytes.NewReader(body)))
		if rec.Code != http.StatusCreated {
			b.Fatalf("upload: %d %s", rec.Code, rec.Body)
		}
	}
}
