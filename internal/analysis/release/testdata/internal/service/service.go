// Package service checks the scope split: the token-balance rules apply
// module-wide, but the ParFill-only fan-out rule is confined to the
// engine packages (internal/logic, internal/system).
package service

import (
	"kpa/internal/system"
)

// BuildWithBudget leaks tokens if the build panics: flagged even
// outside the engine packages.
func BuildWithBudget(g *system.Gate, par int, build func(workers int)) {
	extra := g.TryAcquire(par - 1) // want `release is not deferred`
	build(1 + extra)
	g.Release(extra)
}

// BuildDeferred is the fixed form.
func BuildDeferred(g *system.Gate, par int, build func(workers int)) {
	extra := g.TryAcquire(par - 1)
	defer g.Release(extra)
	build(1 + extra)
}

// ServeAsync may spawn goroutines freely: the fan-out rule does not
// apply outside the engine.
func ServeAsync(run func()) {
	go run()
}

// FlushEvery is the background-writer loop: each tick draws extra
// tokens for one flush and discharges them tick-locally through the
// deferred release inside the per-tick closure — the accepted form.
func FlushEvery(g *system.Gate, ticks <-chan struct{}, flush func(workers int)) {
	for range ticks {
		func() {
			extra := g.TryAcquire(3)
			defer g.Release(extra)
			flush(1 + extra)
		}()
	}
}

// FlushEveryLeaky releases after the flush without defer: a flush that
// panics mid-tick leaks that tick's tokens, and the loop keeps drawing
// more on every later tick.
func FlushEveryLeaky(g *system.Gate, ticks <-chan struct{}, flush func(workers int)) {
	for range ticks {
		extra := g.TryAcquire(3) // want `release is not deferred`
		flush(1 + extra)
		g.Release(extra)
	}
}
