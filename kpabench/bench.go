package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// inputSize keeps one evaluation in the millisecond range, so a 10-second
// window holds thousands of requests, while each information cell still
// spans about 128 runs of unequal weight, so the probability operators do
// real exact-rational work: 2048 runs × 8 steps = 16384 points.
var inputSize = size{agents: 3, runs: 2048, length: 8, buckets: 16, props: 4}

const (
	systemName  = "bench"
	setupRounds = 5       // set-ups per run; setup_s is their median
	rosterSize  = 24      // formulas the set-up checks and hit repeats
	memoLimit   = 1 << 12 // oracle extensions kept before the memo is dropped
)

// workload returns the formula of the client's next /v1/check.
type workload func(c *client) *formula

// client is the closed-loop sender. Its generator never repeats a formula
// the set-up or the client itself has sent.
type client struct {
	gen    *generator
	roster []*formula
	turn   int
}

// workloads: hit repeats the roster the set-up cached; miss sends only
// never-seen formulas.
var workloads = map[string]workload{
	"hit": func(c *client) *formula {
		c.turn++
		return c.roster[c.turn%len(c.roster)]
	},
	"miss": func(c *client) *formula {
		return c.gen.fresh(1)[0]
	},
}

// op is one /v1/check and kpad's reply.
type op struct {
	f     *formula
	reply reply
	start time.Time
	took  time.Duration
}

func do(d *daemon, f *formula) op {
	start := time.Now()
	r := d.check(systemName, f)
	return op{f: f, reply: r, start: start, took: time.Since(start)}
}

func bench(ctx context.Context, cfg config) (result, error) {
	m := newModel(rand.New(rand.NewSource(cfg.seed)), inputSize)
	setupGen := newGenerator(m, rand.New(rand.NewSource(^cfg.seed)), nil)
	roster := setupGen.fresh(rosterSize)
	body := m.uploadBody(systemName)
	logPath := filepath.Join(cfg.out, fmt.Sprintf("kpad-%s-%d.log", cfg.name, cfg.seed))
	var tr *tracer
	if cfg.trace {
		tr = &tracer{t0: time.Now()}
	}

	// Set-up: boot kpad, upload the system, then check the roster, so the
	// session's index, information cells, probability spaces and pooled
	// evaluator are built and the roster's verdicts are cached before timing.
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	var setupS, bootMs, uploadMs, warmMs []float64
	var setupOps []op
	for round := 0; round < setupRounds; round++ {
		if d != nil {
			d.stop()
			d = nil
		}
		if err := ctx.Err(); err != nil {
			return result{}, err
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(cfg.kpad, logPath); err != nil {
			return result{}, err
		}
		t1 := time.Now()
		if err := d.upload(body); err != nil {
			return result{}, err
		}
		t2 := time.Now()
		setupOps = setupOps[:0]
		for _, f := range roster {
			setupOps = append(setupOps, do(d, f))
		}
		t3 := time.Now()
		setupS = append(setupS, t3.Sub(t0).Seconds())
		bootMs = append(bootMs, ms(t1.Sub(t0)))
		uploadMs = append(uploadMs, ms(t2.Sub(t1)))
		warmMs = append(warmMs, ms(t3.Sub(t2)))
		parent := tr.add("setup", 0, t0, t3)
		tr.add("boot", parent, t0, t1)
		tr.add("upload", parent, t1, t2)
		tr.add("warm", parent, t2, t3)
	}

	var before, after kpadStats
	if cfg.trace {
		var err error
		if before, err = d.stats(); err != nil {
			return result{}, err
		}
	}
	c := &client{gen: newGenerator(m, rand.New(rand.NewSource(cfg.seed*1000003)), roster), roster: roster}
	measureStart := time.Now()
	ops := measure(ctx, d, cfg.workload, c, measureStart.Add(cfg.window))
	measureEnd := time.Now()
	if err := ctx.Err(); err != nil {
		return result{}, err
	}
	if cfg.trace {
		var err error
		if after, err = d.stats(); err != nil {
			return result{}, err
		}
	}
	d.stop()
	d = nil

	// Verification: every verdict, the set-up's included, must match the
	// benchmark's own model checker.
	chk := &checker{m: m, memo: make(map[string]pset)}
	res := result{Correct: true, Metrics: make(map[string]metric)}
	for _, o := range setupOps {
		if !chk.right(o.f, o.reply) {
			res.Correct = false
		}
	}
	var lat []float64
	for _, o := range ops {
		lat = append(lat, ms(o.took))
		res.Attempted++
		if !chk.right(o.f, o.reply) {
			res.Failed++
			if o.reply.err == nil {
				res.Correct = false
			}
		}
	}
	verifyEnd := time.Now()
	sort.Float64s(lat)
	window := measureEnd.Sub(measureStart)

	if !cfg.trace {
		res.Metrics["latency_p50_ms"] = metric{quantile(lat, 0.50), "ms"}
		res.Metrics["latency_p90_ms"] = metric{quantile(lat, 0.90), "ms"}
		res.Metrics["checks_per_s"] = metric{float64(res.Attempted-res.Failed) / window.Seconds(), "1/s"}
		res.Metrics["setup_s"] = metric{median(setupS), "s"}
		return res, nil
	}

	measured := tr.add("measure", 0, measureStart, measureEnd)
	for _, o := range ops {
		tr.add("check", measured, o.start, o.start.Add(o.took))
	}
	tr.add("verify", 0, measureEnd, verifyEnd)
	if err := tr.write(filepath.Join(cfg.out, fmt.Sprintf("trace-%s-%d.json", cfg.name, cfg.seed))); err != nil {
		return result{}, err
	}
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	evals := float64(after.Eval.Evals - before.Eval.Evals)
	evalNanos := float64(after.Eval.TotalNanos - before.Eval.TotalNanos)
	created, reused, resets := poolTotals(after)
	created0, reused0, resets0 := poolTotals(before)
	res.Metrics = map[string]metric{
		"boot_ms":         {median(bootMs), "ms"},
		"upload_ms":       {median(uploadMs), "ms"},
		"warm_ms":         {median(warmMs), "ms"},
		"cache_hits":      {hits, "count"},
		"cache_hit_ratio": {ratio(hits, hits+misses), "ratio"},
		"evals":           {evals, "count"},
		"eval_ms":         {ratio(evalNanos, evals) / 1e6, "ms"},
		"pool_created":    {float64(created - created0), "count"},
		"pool_reused":     {float64(reused - reused0), "count"},
		"pool_resets":     {float64(resets - resets0), "count"},
		"sheds":           {float64(after.Resilience.Sheds - before.Resilience.Sheds), "count"},
		"shard_rounds":    {float64(after.Engine.ShardRounds - before.Engine.ShardRounds), "count"},
	}
	return res, nil
}

// measure sends the workload's requests in a closed loop, each as soon as
// the previous one is answered, until the deadline.
func measure(ctx context.Context, d *daemon, w workload, c *client, deadline time.Time) []op {
	var ops []op
	for ctx.Err() == nil && time.Now().Before(deadline) {
		ops = append(ops, do(d, w(c)))
	}
	return ops
}

// checker compares kpad's verdicts with the model's own.
type checker struct {
	m    *model
	memo map[string]pset
}

func (c *checker) right(f *formula, r reply) bool {
	if r.err != nil {
		return false
	}
	if len(c.memo) > memoLimit {
		c.memo = make(map[string]pset)
	}
	n := c.m.points()
	holds := c.m.eval(f, c.memo).count()
	return r.Points == n && r.HoldsAt == holds && r.Valid == (holds == n)
}

func poolTotals(st kpadStats) (created, reused, resets uint64) {
	for _, p := range st.Pools {
		created += p.Created
		reused += p.Reused
		resets += p.Resets
	}
	return created, reused, resets
}

// span is one traced interval; Parent is the ID of the span that caused
// it, 0 for a top-level one. Times are nanoseconds since the run began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) write(path string) error {
	raw, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
