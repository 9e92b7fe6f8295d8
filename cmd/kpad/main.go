// Command kpad is the knowledge-probability-adversary daemon: an HTTP/JSON
// front end for internal/service, serving model-checking queries over the
// library's example systems and uploaded JSON systems.
//
// Usage:
//
//	kpad -addr :8123 -preload introcoin,die
//
// Endpoints:
//
//	POST /v1/check        {"system":"introcoin","assign":"post","formula":"K1^1/2 heads"}
//	POST /v1/batch        {"system":"die","formulas":["K2 even","Pr2(even) >= 1/2"]}
//	GET  /v1/systems      list the loaded systems
//	POST /v1/systems      {"name":"mycoin","doc":{...encode document...}}
//	POST /v1/search       create a strategy-search job (docs/SEARCH.md)
//	GET  /v1/search       list search jobs
//	GET  /v1/search/{id}  job progress: nodes expanded/pruned, incumbent
//	DELETE /v1/search/{id} cancel a job (resumable via resumeFrom)
//	GET  /v1/stats        cache, request, resilience and search counters, and
//	                      a "pools" entry per model: evaluators made over it
//	GET  /healthz         liveness: 200 while the process serves
//	GET  /readyz          readiness: 200 once warm; 503 "restoring" during
//	                      snapshot restore, 503 "draining" during shutdown
//
// Every response is JSON; errors are {"error":"...","kind":"..."} with the
// status mandated by the service's error taxonomy (docs/RESILIENCE.md):
// 404 unknown system, 409 upload conflict, 503 + Retry-After when
// admission control sheds, 504 on deadline, 500 on a contained evaluator
// panic, 400 for client mistakes. Request bodies are size-limited (413
// past -max-body), must be a single JSON object with no unknown fields and
// no trailing data, and each request runs under a timeout. Keys match
// field names exactly or case-insensitively, as in encoding/json. An
// upload's body is read once and scanned in place (encode.Envelope): its
// doc is handed to the service as the bytes it arrived as, and a repeated
// key, such as a second "name", is an error, as inside documents.
// SIGINT/SIGTERM flip /readyz to 503, then drain in-flight requests before
// exiting.
//
// With -snapshot-dir the daemon persists each loaded session — the
// system's identity, its names and its cached verdicts — and restores
// them at boot: it rebuilds and hash-checks the system, builds its dense
// index and every agent's cells, and only then reports ready, serving
// cache-warm from the first request. A SIGTERM during restore aborts
// cleanly, and a corrupt or older-version snapshot degrades to a cold
// load. With -search-dir it also re-discovers unfinished search-job
// checkpoints at boot and resumes them under their original IDs.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"kpa/internal/encode"
	"kpa/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kpad:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kpad", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8123", "listen address")
		preload   = fs.String("preload", "", "comma-separated registry systems to load at startup")
		timeout   = fs.Duration("timeout", 30*time.Second, "per-request evaluation timeout")
		maxBody   = fs.Int64("max-body", 1<<20, "maximum request body in bytes")
		cache     = fs.Int("cache", 0, "verdict cache entries (0 = default)")
		inflight  = fs.Int("max-inflight", 0, "concurrent evaluation slots (0 = default)")
		par       = fs.Int("parallelism", 0, "dense-engine parallelism budget: total engine goroutines across all in-flight evaluations (0 = serial)")
		queueWait = fs.Duration("queue-wait", 0, "how long a request may queue for a slot before 503 (0 = default)")

		searchWorkers = fs.Int("search-workers", 0, "branch-and-bound workers per search job (0 = default)")
		maxSearchJobs = fs.Int("max-search-jobs", 0, "concurrently running search jobs (0 = default)")
		searchDir     = fs.String("search-dir", "", "directory for resumable search checkpoints (empty = no persistence)")

		snapshotDir   = fs.String("snapshot-dir", "", "directory for durable session snapshots; restored on boot (empty = no persistence)")
		snapshotEvery = fs.Duration("snapshot-every", 0, "background snapshot cadence (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	svc := service.New(service.Config{
		CacheSize:           *cache,
		MaxInFlight:         *inflight,
		Parallelism:         *par,
		QueueWait:           *queueWait,
		SearchWorkers:       *searchWorkers,
		MaxSearchJobs:       *maxSearchJobs,
		SearchCheckpointDir: *searchDir,
		SnapshotDir:         *snapshotDir,
		SnapshotEvery:       *snapshotEvery,
	})
	for _, name := range strings.Split(*preload, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		info, err := svc.Load(name)
		if err != nil {
			return fmt.Errorf("preload %q: %w", name, err)
		}
		log.Printf("loaded %s (%d points, hash %.12s)", info.Name, info.Points, info.Hash)
	}

	d := newDaemon(svc, *timeout, *maxBody)
	if *snapshotDir != "" {
		// The server accepts connections immediately but /readyz reports
		// "restoring" until every durable snapshot is re-published.
		d.state.Store(stateRestoring)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           d.handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("kpad listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()
	restored := make(chan struct{})
	go func() {
		// Warm restore runs under the signal context: SIGTERM mid-restore
		// aborts between sessions and never publishes a partial one — the
		// daemon then exits without ever reporting ready.
		defer close(restored)
		if *snapshotDir != "" {
			rep, err := svc.RestoreSnapshots(ctx)
			if err != nil {
				log.Printf("snapshot restore aborted: %v", err)
				return
			}
			log.Printf("restored %d session(s) from %d snapshot bytes: %d cached verdicts, index and cells rebuilt",
				rep.Sessions, rep.Bytes, rep.Verdicts)
			for _, c := range rep.Corrupt {
				log.Printf("snapshot rejected (cold load instead): %s", c)
			}
		}
		if *searchDir != "" {
			rep := svc.ResumeSearches()
			for _, id := range rep.Resumed {
				log.Printf("resumed search %s from its checkpoint", id)
			}
			for _, skip := range rep.Skipped {
				log.Printf("search checkpoint skipped: %s", skip)
			}
		}
		d.state.CompareAndSwap(stateRestoring, stateReady)
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Flip readiness first so load balancers stop routing here; cancel
		// running searches so their final checkpoints are written (they
		// resume from -search-dir on restart); flush a final snapshot; then
		// drain in-flight requests.
		d.state.Store(stateDraining)
		log.Printf("shutting down")
		<-restored // the aborted restore goroutine, if any, has settled
		svc.DrainSearches()
		if err := svc.Close(); err != nil {
			log.Printf("final snapshot flush: %v", err)
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Shutdown(shutCtx)
	}
}

// Readiness states: /readyz distinguishes a daemon that is still warming
// from its snapshots (new traffic should wait — the same query is about to
// be cache-hot) from one that is draining for shutdown (traffic must go
// elsewhere). Both answer 503; the body says which.
const (
	stateReady int32 = iota
	stateRestoring
	stateDraining
)

// daemon carries the HTTP layer's state: the service plus the readiness
// state machine, so /readyz can advertise restoring before the warm boot
// finishes and draining before Shutdown stops accepting.
type daemon struct {
	svc     *service.Service
	timeout time.Duration
	maxBody int64
	state   atomic.Int32
	start   time.Time
}

func newDaemon(svc *service.Service, timeout time.Duration, maxBody int64) *daemon {
	return &daemon{svc: svc, timeout: timeout, maxBody: maxBody, start: time.Now()}
}

// newHandler builds the kpad HTTP mux over the service. Factored out of run
// so tests can drive it through httptest.
func newHandler(svc *service.Service, timeout time.Duration, maxBody int64) http.Handler {
	return newDaemon(svc, timeout, maxBody).handler()
}

func (d *daemon) handler() http.Handler {
	svc, timeout, maxBody := d.svc, d.timeout, d.maxBody
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":        "ok",
			"uptimeSeconds": int64(time.Since(d.start) / time.Second),
		})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		switch d.state.Load() {
		case stateRestoring:
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "restoring"})
		case stateDraining:
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		default:
			writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "systems": len(svc.Systems())})
		}
	})
	mux.HandleFunc("POST /v1/check", func(w http.ResponseWriter, r *http.Request) {
		var req service.CheckRequest
		if !readJSON(w, r, maxBody, &req) {
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		v, err := svc.Check(ctx, req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var req service.BatchRequest
		if !readJSON(w, r, maxBody, &req) {
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		items, err := svc.Batch(ctx, req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"items": items})
	})
	mux.HandleFunc("GET /v1/systems", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"systems": svc.Systems()})
	})
	mux.HandleFunc("POST /v1/systems", func(w http.ResponseWriter, r *http.Request) {
		body, ok := readBody(w, r, maxBody)
		if !ok {
			return
		}
		name, doc, err := encode.Envelope(body)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad JSON: " + err.Error()})
			return
		}
		info, err := svc.Upload(name, doc)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Stats())
	})
	mux.HandleFunc("POST /v1/search", func(w http.ResponseWriter, r *http.Request) {
		var req service.SearchRequest
		if !readJSON(w, r, maxBody, &req) {
			return
		}
		st, err := svc.StartSearch(req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, st)
	})
	mux.HandleFunc("GET /v1/search", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"searches": svc.Searches()})
	})
	mux.HandleFunc("GET /v1/search/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := svc.SearchStatusOf(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /v1/search/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := svc.CancelSearch(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	return mux
}

// readJSON decodes a size-limited JSON body strictly — unknown fields are
// rejected (they are always a client bug: a typoed key silently ignored is
// a formula checked against the wrong system) and so is trailing data
// after the first JSON value. It writes the error response itself when
// decoding fails.
func readJSON(w http.ResponseWriter, r *http.Request, maxBody int64, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeReadError(w, err)
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		writeJSON(w, http.StatusBadRequest,
			map[string]string{"error": "bad JSON: trailing data after the request object"})
		return false
	}
	return true
}

// readBody reads a size-limited body whole into one buffer, sized from
// Content-Length when the client declared one within maxBody. It writes
// the error response itself when reading fails.
func readBody(w http.ResponseWriter, r *http.Request, maxBody int64) ([]byte, bool) {
	var buf bytes.Buffer
	if n := r.ContentLength; n >= 0 && n <= maxBody {
		// MinRead spare bytes let the read that reports EOF land without
		// growing the buffer.
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
		writeReadError(w, err)
		return nil, false
	}
	return buf.Bytes(), true
}

// writeReadError answers a body that could not be read or decoded: 413
// past the size limit, else 400.
func writeReadError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			map[string]string{"error": fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)})
		return
	}
	writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad JSON: " + err.Error()})
}

// writeError maps the service's typed error taxonomy onto HTTP statuses.
// Unclassified errors are 500: a fault the service did not anticipate is
// the server's, never silently the client's.
func writeError(w http.ResponseWriter, err error) {
	kind := service.KindOf(err)
	var status int
	switch kind {
	case service.KindBadRequest:
		status = http.StatusBadRequest
	case service.KindNotFound:
		status = http.StatusNotFound
	case service.KindConflict:
		status = http.StatusConflict
	case service.KindOverloaded:
		status = http.StatusServiceUnavailable
		retry := service.RetryAfterOf(err)
		if retry <= 0 {
			retry = time.Second
		}
		secs := int64((retry + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	case service.KindTimeout:
		status = http.StatusGatewayTimeout
	case service.KindCanceled:
		status = 499 // client closed request
	case service.KindPanic, service.KindInternal:
		status = http.StatusInternalServerError
	default:
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, map[string]string{"error": err.Error(), "kind": kind.String()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("kpad: write response: %v", err)
	}
}
