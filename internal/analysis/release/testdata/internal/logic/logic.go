// Package logic exercises the Gate token-balance discipline: the three
// discharge forms stay clean, every leaking path and every hand-rolled
// goroutine fan-out is flagged.
package logic

import (
	"kpa/internal/system"
)

func work() int { return 1 }

// DeferRelease is the canonical panic-proof form.
func DeferRelease(g *system.Gate, par int) {
	extra := g.TryAcquire(par - 1)
	defer g.Release(extra)
	work()
}

// PlainReleaseNoCalls releases on the only path with no panic window.
func PlainReleaseNoCalls(g *system.Gate, par int) int {
	extra := g.TryAcquire(par - 1)
	workers := 1 + extra
	g.Release(extra)
	return workers
}

// PlainReleaseWithCall has a call in the panic window: a panic inside
// work leaks the tokens.
func PlainReleaseWithCall(g *system.Gate, par int) {
	extra := g.TryAcquire(par - 1) // want `release is not deferred`
	work()
	g.Release(extra)
}

// LeakOnReturn escapes through an early return without releasing.
func LeakOnReturn(g *system.Gate, par int, abort bool) {
	extra := g.TryAcquire(par - 1)
	if abort {
		return // want `return without releasing`
	}
	g.Release(extra)
}

// ZeroGuard returns early only when no tokens were acquired.
func ZeroGuard(g *system.Gate, par int) int {
	extra := g.TryAcquire(par - 1)
	if extra == 0 {
		return 1
	}
	defer g.Release(extra)
	return 1 + extra
}

// ClosureTransfer hands the obligation to the release callback, the
// Engine.Workers pattern.
func ClosureTransfer(g *system.Gate, par int) (int, func()) {
	extra := g.TryAcquire(par - 1)
	if extra == 0 {
		return 1, func() {}
	}
	return 1 + extra, func() { g.Release(extra) }
}

// Discarded drops the acquired count on the floor.
func Discarded(g *system.Gate, par int) {
	g.TryAcquire(par - 1) // want `result of Gate.TryAcquire is discarded`
	work()
}

// NeverReleased falls off the end of the function holding tokens.
func NeverReleased(g *system.Gate, par int) {
	extra := g.TryAcquire(par - 1) // want `never released`
	_ = extra
	work()
}

// HandRolledShards spawns goroutines directly instead of ParFill: the
// fan-out bypasses the gate's worker budget.
func HandRolledShards(n int, out []int) {
	done := make(chan struct{})
	go func() { // want `hand-rolled goroutine fan-out`
		for i := 0; i < n; i++ {
			out[i] = i
		}
		close(done)
	}()
	<-done
}

// SanctionedFanOut goes through ParFill: clean.
func SanctionedFanOut(workers int, out []int) {
	system.ParFill(out, workers, func(_ int, part []int, lo int) {
		for j := range part {
			part[j] = lo + j
		}
	})
}
