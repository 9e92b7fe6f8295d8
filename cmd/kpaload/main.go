// Command kpaload replays a mixed /v1/check + /v1/batch workload against a
// running kpad and reports throughput and latency percentiles as JSON.
//
// Usage:
//
//	kpaload -url http://localhost:8123 -system scale:100k -requests 2000 -concurrency 8
//
// The workload is deterministic: a fixed roster of formulas over the
// system's propositions is cycled by every worker, and every batchEvery-th
// request is a /v1/batch carrying batchSize formulas instead of a single
// /v1/check. Before the timed phase, one lone probe request measures the
// first-request latency — the number that separates a cold daemon
// (rebuilding indexes and partitions on demand) from one restored warm
// from a snapshot directory; scripts/bench.sh records both sides as its
// http/restart rows in BENCH.json.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kpaload:", err)
		os.Exit(1)
	}
}

// Report is kpaload's JSON output.
type Report struct {
	URL         string `json:"url"`
	System      string `json:"system"`
	Assign      string `json:"assign,omitempty"`
	Concurrency int    `json:"concurrency"`

	// Requests counts completed requests (checks and batches), Errors the
	// subset that failed (transport error or non-200 status).
	Requests      int `json:"requests"`
	BatchRequests int `json:"batchRequests"`
	Errors        int `json:"errors"`

	// FirstRequestMs is the lone probe issued before the timed phase, and
	// FirstRequestCached whether the daemon answered it from its verdict
	// cache — true on a warm restart, false on a cold boot.
	FirstRequestMs     float64 `json:"firstRequestMs"`
	FirstRequestCached bool    `json:"firstRequestCached"`

	ElapsedMs     float64 `json:"elapsedMs"`
	ThroughputRPS float64 `json:"throughputRps"`
	P50Ms         float64 `json:"p50Ms"`
	P95Ms         float64 `json:"p95Ms"`
	P99Ms         float64 `json:"p99Ms"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("kpaload", flag.ContinueOnError)
	var (
		url         = fs.String("url", "http://localhost:8123", "kpad base URL")
		sysName     = fs.String("system", "introcoin", "system to query")
		assign      = fs.String("assign", "", "probability assignment (empty = service default)")
		props       = fs.String("props", "heads", "comma-separated proposition names to build formulas over")
		requests    = fs.Int("requests", 1000, "total requests in the timed phase")
		concurrency = fs.Int("concurrency", 8, "concurrent workers")
		distinct    = fs.Int("distinct", 16, "distinct formulas in the roster (cycled)")
		batchEvery  = fs.Int("batch-every", 5, "every Nth request is a /v1/batch (0 = checks only)")
		batchSize   = fs.Int("batch-size", 4, "formulas per batch request")
		timeout     = fs.Duration("timeout", 60*time.Second, "per-request client timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *requests < 1 || *concurrency < 1 || *distinct < 1 || *batchSize < 1 {
		return fmt.Errorf("requests, concurrency, distinct and batch-size must be positive")
	}
	roster := formulaRoster(strings.Split(*props, ","), *distinct)
	client := &http.Client{Timeout: *timeout}
	rep := Report{
		URL:         *url,
		System:      *sysName,
		Assign:      *assign,
		Concurrency: *concurrency,
	}

	// The probe: one request, alone, before any load. Against a cold
	// daemon this pays the full index-and-partition build of the system;
	// against a warm-restored one it is a cache hit.
	probeStart := time.Now()
	cached, err := postCheck(client, *url, *sysName, *assign, roster[0])
	if err != nil {
		return fmt.Errorf("probe request: %w", err)
	}
	rep.FirstRequestMs = float64(time.Since(probeStart)) / float64(time.Millisecond)
	rep.FirstRequestCached = cached

	var (
		next      atomic.Int64
		mu        sync.Mutex
		latencies []time.Duration
		errCount  int
		batches   int
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]time.Duration, 0, *requests / *concurrency)
			localErrs, localBatches := 0, 0
			for {
				i := int(next.Add(1)) - 1
				if i >= *requests {
					break
				}
				var err error
				t0 := time.Now()
				if *batchEvery > 0 && i%*batchEvery == 0 {
					err = postBatch(client, *url, *sysName, *assign, batchFormulas(roster, i, *batchSize))
					localBatches++
				} else {
					_, err = postCheck(client, *url, *sysName, *assign, roster[i%len(roster)])
				}
				local = append(local, time.Since(t0))
				if err != nil {
					localErrs++
				}
			}
			mu.Lock()
			latencies = append(latencies, local...)
			errCount += localErrs
			batches += localBatches
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep.Requests = len(latencies)
	rep.BatchRequests = batches
	rep.Errors = errCount
	rep.ElapsedMs = float64(elapsed) / float64(time.Millisecond)
	if elapsed > 0 {
		rep.ThroughputRPS = float64(len(latencies)) / elapsed.Seconds()
	}
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	rep.P50Ms = percentileMs(latencies, 50)
	rep.P95Ms = percentileMs(latencies, 95)
	rep.P99Ms = percentileMs(latencies, 99)

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// formulaRoster builds a deterministic formula mix over the propositions:
// knowledge, probabilistic knowledge, threshold and temporal operators in a
// fixed rotation, so two kpaload runs (cold and warm) issue byte-identical
// traffic.
func formulaRoster(props []string, distinct int) []string {
	clean := make([]string, 0, len(props))
	for _, p := range props {
		if p = strings.TrimSpace(p); p != "" {
			clean = append(clean, p)
		}
	}
	if len(clean) == 0 {
		clean = []string{"heads"}
	}
	shapes := []func(prop string, k int) string{
		func(p string, k int) string { return fmt.Sprintf("K%d %s", k%2+1, p) },
		func(p string, k int) string { return fmt.Sprintf("K%d^1/%d %s", k%2+1, k%5+2, p) },
		func(p string, k int) string { return fmt.Sprintf("Pr%d(%s) >= 1/%d", k%2+1, p, k%7+2) },
		func(p string, k int) string { return fmt.Sprintf("F %s", p) },
		func(p string, k int) string { return fmt.Sprintf("!K%d !%s", k%2+1, p) },
	}
	roster := make([]string, 0, distinct)
	seen := make(map[string]bool, distinct)
	for k := 0; len(roster) < distinct && k < distinct*100; k++ {
		f := shapes[k%len(shapes)](clean[k%len(clean)], k)
		if seen[f] {
			continue
		}
		seen[f] = true
		roster = append(roster, f)
	}
	// Degenerate rosters (tiny shape space) cycle rather than underfill.
	for i := 0; len(roster) < distinct; i++ {
		roster = append(roster, roster[i%len(roster)])
	}
	return roster
}

// batchFormulas picks the batch's slice of the roster, offset by the
// request index so consecutive batches differ.
func batchFormulas(roster []string, i, size int) []string {
	out := make([]string, 0, size)
	for k := 0; k < size; k++ {
		out = append(out, roster[(i+k)%len(roster)])
	}
	return out
}

// postCheck issues one /v1/check and reports whether the verdict was
// served from the daemon's cache.
func postCheck(client *http.Client, url, system, assign, formula string) (cached bool, err error) {
	body := map[string]string{"system": system, "formula": formula}
	if assign != "" {
		body["assign"] = assign
	}
	var out struct {
		Cached bool `json:"cached"`
	}
	if err := postJSON(client, url+"/v1/check", body, &out); err != nil {
		return false, err
	}
	return out.Cached, nil
}

// postBatch issues one /v1/batch.
func postBatch(client *http.Client, url, system, assign string, formulas []string) error {
	body := map[string]any{"system": system, "formulas": formulas}
	if assign != "" {
		body["assign"] = assign
	}
	return postJSON(client, url+"/v1/batch", body, nil)
}

func postJSON(client *http.Client, url string, in, out any) error {
	doc, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(doc))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

// percentileMs returns the q-th percentile of the sorted latencies in
// milliseconds (nearest-rank).
func percentileMs(sorted []time.Duration, q int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*q + 99) / 100
	if idx > 0 {
		idx--
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}
