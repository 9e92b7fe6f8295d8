package service

import (
	"fmt"
	"strings"
	"testing"

	"kpa/internal/gen"
	"kpa/internal/registry"
	"kpa/internal/system"
)

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
