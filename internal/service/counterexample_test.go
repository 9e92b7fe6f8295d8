package service

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"kpa/internal/gen"
	"kpa/internal/registry"
	"kpa/internal/system"
)

// counterexample renders one point as a verdict's counterexamples did
// before they shared one string: the point's String, a space, and its
// global state's String.
func counterexample(p system.Point) string {
	return p.String() + " " + p.State().String()
}

// fmtCounterexample is the reference rendering of a counterexample. It was
// fmt.Sprintf("%v %s", p, p.State()), but %v and %s now resolve to the
// strconv-based Point.String and GlobalState.String under test, so the
// reference spells out the fmt formats those methods used to apply.
func fmtCounterexample(p system.Point) string {
	st := p.State()
	parts := []string{"env=" + st.Env}
	for i, l := range st.Locals {
		parts = append(parts, fmt.Sprintf("p%d=%s", i+1, l))
	}
	return fmt.Sprintf("(%s/r%d, %d) %s", p.Tree.Adversary, p.Run, p.Time, "("+strings.Join(parts, ", ")+")")
}

// TestCounterexampleBytes checks counterexample against the fmt reference
// on every point of every fixed registry system, async:6 and a
// kpabench-shaped scale broom (3 agents, 2,048 runs × 8 steps, 16
// buckets).
func TestCounterexampleBytes(t *testing.T) {
	systems := map[string]*system.System{
		"scale broom": gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 3, NumRuns: 2048, RunLen: 8, Buckets: 16}),
	}
	for _, name := range append(registry.Names(), "async:6") {
		if strings.HasSuffix(name, ":N") || strings.HasSuffix(name, ":TIER") {
			continue // parameterized; async:6 stands for async:N
		}
		e, err := registry.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		systems[name] = e.Sys
	}
	for name, sys := range systems {
		idx := sys.Index()
		for id := 0; id < idx.NumPoints(); id++ {
			p := idx.PointAt(id)
			if got, want := counterexample(p), fmtCounterexample(p); got != want {
				t.Fatalf("%s point %d: rendered %q, want %q", name, id, got, want)
			}
		}
	}
}

// TestCounterexamplesShareOneString checks the counterexamples a verdict
// holds, substrings of one string per verdict, byte-identical to
// counterexample(p): over every point of introcoin, of several gen
// systems and of a chain, taken at most maxCounterexamples at a time as a
// verdict takes them. Snapshots store these strings.
func TestCounterexamplesShareOneString(t *testing.T) {
	intro, err := registry.Lookup("introcoin")
	if err != nil {
		t.Fatal(err)
	}
	systems := map[string]*system.System{
		"introcoin":   intro.Sys,
		"chain":       gen.MustChainSystem(40),
		"scale broom": gen.MustScaleSystem(gen.ScaleConfig{NumAgents: 3, NumRuns: 64, RunLen: 5, Buckets: 4}),
	}
	// Up to 13 agents: twenty of the largest systems' renderings outgrow
	// counterexamples' 2 KB stack buffer.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		cfg := gen.DefaultConfig()
		cfg.NumAgents, cfg.Synchronous, cfg.MaxDepth = 1+4*i, i%2 == 0, 3+i/2
		systems[fmt.Sprintf("gen %d", i)] = gen.MustSystem(rng, cfg)
	}
	for name, sys := range systems {
		idx := sys.Index()
		pts := idx.FullDense().Sorted()
		for lo := 0; lo < len(pts); lo += maxCounterexamples {
			chunk := pts[lo:min(lo+maxCounterexamples, len(pts))]
			got := counterexamples(chunk)
			if len(got) != len(chunk) {
				t.Fatalf("%s: %d counterexamples for %d points", name, len(got), len(chunk))
			}
			for i, p := range chunk {
				if want := counterexample(p); got[i] != want {
					t.Fatalf("%s point %d: rendered %q, want %q", name, lo+i, got[i], want)
				}
			}
		}
	}
}
