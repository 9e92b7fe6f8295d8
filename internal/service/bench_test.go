package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"kpa/internal/encode"
	"kpa/internal/rat"
)

// BenchmarkServiceCheck baselines the serving layer for future perf PRs:
// cold measures a full evaluation per request (fresh service each time),
// warm measures the verdict-cache path, and warm_model measures a cache
// miss evaluated over a warm model (distinct formulas, shared proposition
// extensions and space tables). batch measures the fan-out path.

func BenchmarkServiceCheck(b *testing.B) {
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		// New service per iteration: no verdict cache, no warm model.
		for i := 0; i < b.N; i++ {
			svc := New(Config{})
			if _, err := svc.Check(ctx, CheckRequest{System: "async:6", Formula: "K1^1/2 lastHeads"}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm_cache", func(b *testing.B) {
		svc := New(Config{})
		req := CheckRequest{System: "async:6", Formula: "K1^1/2 lastHeads"}
		if _, err := svc.Check(ctx, req); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, err := svc.Check(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if !v.Cached {
				b.Fatal("warm_cache benchmark missed the cache")
			}
		}
	})

	b.Run("warm_model", func(b *testing.B) {
		// Rotate distinct formulas over one session: every request misses
		// the verdict cache, and its fresh evaluator reads the model's
		// lastHeads extension and agent 1's space table.
		svc := New(Config{CacheSize: 1})
		reqs := []CheckRequest{
			{System: "async:6", Formula: "K1^1/2 lastHeads"},
			{System: "async:6", Formula: "K1 lastHeads"},
			{System: "async:6", Formula: "F (K1^1/2 lastHeads)"},
			{System: "async:6", Formula: "!lastHeads | lastHeads"},
		}
		if _, err := svc.Check(ctx, reqs[0]); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := svc.Check(ctx, reqs[i%len(reqs)]); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("batch", func(b *testing.B) {
		svc := New(Config{CacheSize: 1}) // defeat the verdict cache
		formulas := make([]string, 16)
		for i := range formulas {
			// Distinct per slot so the batch genuinely fans out.
			formulas[i] = fmt.Sprintf("K1^%d/16 lastHeads", i+1)
		}
		req := BatchRequest{System: "async:6", Formulas: formulas}
		if _, err := svc.Batch(ctx, req); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			items, err := svc.Batch(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			for _, item := range items {
				if item.Error != "" {
					b.Fatal(item.Error)
				}
			}
		}
	})
}

// benchBroomDoc returns a kpabench-shaped upload: one broom tree whose
// root picks run r with weight 1–4 out of the total, 2,048 runs of 8
// points, 3 agents each seeing one of 16 buckets drawn per point, and 4
// propositions p0–p3 marked in the environment, pJ holding at a point past
// time 0 with probability (J+1)/5.
func benchBroomDoc(rng *rand.Rand) []byte {
	const agents, runs, length, buckets, props = 3, 2048, 8, 16, 4
	weight := make([]int64, runs)
	var total int64
	for r := range weight {
		weight[r] = 1 + rng.Int63n(4)
		total += weight[r]
	}
	root := encode.NodeDoc{Env: "root"}
	for i := 0; i < agents; i++ {
		root.Locals = append(root.Locals, "a"+strconv.Itoa(i)+":t0")
	}
	for r := 0; r < runs; r++ {
		// Build the run's chain from its last point back to time 1.
		var chain []encode.EdgeDoc
		for k := length - 1; k >= 1; k-- {
			node := encode.NodeDoc{Env: "r" + strconv.Itoa(r) + "." + strconv.Itoa(k), Children: chain}
			for j := 0; j < props; j++ {
				if rng.Intn(props+1) <= j {
					node.Env += "|p" + strconv.Itoa(j) + "|"
				}
			}
			for i := 0; i < agents; i++ {
				node.Locals = append(node.Locals, "a"+strconv.Itoa(i)+":t"+strconv.Itoa(k)+":b"+strconv.Itoa(rng.Intn(buckets)))
			}
			chain = []encode.EdgeDoc{{Prob: "1", Node: node}}
		}
		chain[0].Prob = rat.New(weight[r], total).String()
		root.Children = append(root.Children, chain[0])
	}
	doc := encode.Document{Agents: agents, Trees: []encode.TreeDoc{{Adversary: "broom", Root: root}}, Props: map[string]encode.PropDoc{}}
	for j := 0; j < props; j++ {
		doc.Props["p"+strconv.Itoa(j)] = encode.PropDoc{EnvContains: "|p" + strconv.Itoa(j) + "|"}
	}
	out, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return out
}

// missFormulas draws n distinct formulas over benchBroomDoc's agents and
// propositions, each with a knowledge, probability or group operator
// outermost, so each costs at least one sweep over an agent's cells.
func missFormulas(rng *rand.Rand, n int) []string {
	agent := func() string { return strconv.Itoa(1 + rng.Intn(3)) }
	group := func() string {
		for {
			var g []string
			for i := 1; i <= 3; i++ {
				if rng.Intn(2) == 0 {
					g = append(g, strconv.Itoa(i))
				}
			}
			if len(g) >= 2 {
				return "{" + strings.Join(g, ",") + "}"
			}
		}
	}
	pr := func(sub string) string {
		den := 2 + rng.Int63n(11)
		cmp := " >= "
		if rng.Intn(2) == 0 {
			cmp = " <= "
		}
		return "Pr" + agent() + "(" + sub + ")" + cmp + rat.New(1+rng.Int63n(den-1), den).String()
	}
	var sub func(depth int) string
	sub = func(depth int) string {
		if depth == 0 || rng.Intn(3) == 0 {
			return "p" + strconv.Itoa(rng.Intn(4))
		}
		a := "(" + sub(depth-1) + ")"
		switch rng.Intn(8) {
		case 0:
			return "!" + a
		case 1:
			return a + " & (" + sub(depth-1) + ")"
		case 2:
			return a + " | (" + sub(depth-1) + ")"
		case 3:
			return "K" + agent() + " " + a
		case 4, 5:
			return pr(a)
		case 6:
			return []string{"F ", "G "}[rng.Intn(2)] + a
		default:
			return []string{"E", "C"}[rng.Intn(2)] + group() + " " + a
		}
	}
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		a := "(" + sub(2) + ")"
		var f string
		switch rng.Intn(5) {
		case 0:
			f = "K" + agent() + " " + a
		case 1, 2:
			f = pr(a)
		case 3:
			f = "E" + group() + " " + a
		default:
			f = "C" + group() + " " + a
		}
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

// BenchmarkCheckMiss is kpabench's miss workload in process, without HTTP:
// one kpabench-shaped upload, a warm model, and one never-seen formula per
// Check, so every check misses the verdict cache and runs an evaluator.
func BenchmarkCheckMiss(b *testing.B) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	svc := New(Config{})
	if _, err := svc.Upload("broom", benchBroomDoc(rng)); err != nil {
		b.Fatal(err)
	}
	// Warm up the way kpabench's set-up does, building every agent's cells
	// and space tables before the timer starts.
	formulas := missFormulas(rng, 24+b.N)
	for _, f := range formulas[:24] {
		if _, err := svc.Check(ctx, CheckRequest{System: "broom", Formula: f}); err != nil {
			b.Fatal(err)
		}
	}
	formulas = formulas[24:]
	b.ReportAllocs()
	b.ResetTimer()
	for _, f := range formulas {
		v, err := svc.Check(ctx, CheckRequest{System: "broom", Formula: f})
		if err != nil {
			b.Fatal(err)
		}
		if v.Cached {
			b.Fatalf("%s hit the verdict cache", f)
		}
	}
}

// BenchmarkCheckWarm is the warm-up half of kpabench's set-up in process:
// a fresh service per iteration takes the kpabench-shaped upload outside
// the timer, then answers the set-up's 24 checks, each a cold formula on a
// cold session. The timed part is what the first checks build (the index,
// the agents' cells, space tables and group partitions) plus their
// evaluation.
func BenchmarkCheckWarm(b *testing.B) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	doc := benchBroomDoc(rng)
	formulas := missFormulas(rng, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		svc := New(Config{})
		if _, err := svc.Upload("broom", doc); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, f := range formulas {
			if _, err := svc.Check(ctx, CheckRequest{System: "broom", Formula: f}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
