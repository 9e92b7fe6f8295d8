// Command kpabench is the seeded end-to-end benchmark of kpad, the
// model-checking daemon in cmd/kpad.
//
// One run generates a system and formulas from --seed, starts kpad on a
// loopback port, uploads the system and warms it (the set-up, done five
// times on fresh daemons), drives one workload in a closed loop for
// --seconds, checks every verdict against the benchmark's own model checker
// (model.go), stops kpad and prints one JSON line:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// --trace 0 reports the end-to-end metrics: request latency, checks per
// second and set-up time. --trace 1 records a span around every call into
// kpad, writes them to <out>/trace-<workload>-<seed>.json, and reports
// per-layer metrics built from the spans and from kpad's /v1/stats
// counters instead. kpabench/run.sh builds kpad and this program from source
// and runs it from the repository root:
//
//	bash kpabench/run.sh --workload hit --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

type config struct {
	name     string
	workload workload
	seed     int64
	window   time.Duration
	trace    bool
	kpad     string
	out      string
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kpabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed of the generated system and formulas")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	kpad := fs.String("kpad", "", "kpad binary built from the checkout under test")
	out := fs.String("out", ".bench_build", "directory for kpad logs and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || *kpad == "" || *trace < 0 || *trace > 1 {
		fmt.Fprintf(stderr, "kpabench: need --workload (%s), --seconds > 0, --trace 0|1 and --kpad\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "kpabench:", err)
		return 1
	}
	res, err := bench(ctx, config{
		name:     *name,
		workload: w,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		kpad:     *kpad,
		out:      *out,
	})
	if err != nil {
		fmt.Fprintln(stderr, "kpabench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "kpabench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
