// Package logic's miniature Engine: Workers hands back a closure that
// releases the Gate tokens it drew, so Workers and every function that
// passes its closure on are release functions, and the closure they return
// is a borrow its caller must give back.
package logic

import "kpa/internal/system"

// Engine lends extra workers from a gate.
type Engine struct {
	budget int
	gate   *system.Gate
}

// Workers borrows up to budget−1 extra workers.
func (g *Engine) Workers(points int) (int, func()) { // want-fact:"release:ReleaseFunc"
	if g == nil || points < 64 {
		return 1, func() {}
	}
	extra := g.gate.TryAcquire(g.budget - 1)
	if extra == 0 {
		return 1, func() {}
	}
	return 1 + extra, func() { g.gate.Release(extra) }
}

// combineWorkers passes Workers' result on unchanged.
func (g *Engine) combineWorkers(words int) (int, func()) { // want-fact:"release:ReleaseFunc"
	if words < 8 {
		return g.Workers(0)
	}
	return g.Workers(words * 64)
}

// Borrow returns the release closure it borrowed: the caller now owes it.
func Borrow(g *Engine, words int) (int, func()) { // want-fact:"release:ReleaseFunc"
	workers, release := g.combineWorkers(words)
	return workers, release
}

// Partition stands in for a sample-space partition.
type Partition struct{ blocks int }

func build(workers int) *Partition { return &Partition{blocks: workers} }

// DeferredRelease is the idiom: clean.
func DeferredRelease(g *Engine, n int) *Partition {
	workers, release := g.Workers(n)
	defer release()
	return build(workers)
}

// ReleaseNoCalls calls the release plainly with nothing that could panic
// in between: clean.
func ReleaseNoCalls(g *Engine, words int) int {
	workers, release := Borrow(g, words)
	release()
	return workers
}

// ReleaseAfterCall leaks the workers if build panics.
func ReleaseAfterCall(g *Engine, n int) *Partition {
	workers, release := g.Workers(n) // want `release is not deferred`
	p := build(workers)
	release()
	return p
}

// EarlyReturn escapes before the release is deferred.
func EarlyReturn(g *Engine, n int, skip bool) *Partition {
	workers, release := g.Workers(n)
	if skip {
		return nil // want `return without releasing the borrow from g\.Workers`
	}
	defer release()
	return build(workers)
}

// spaceIndexFor keeps the shape that leaked every token when a sample
// space partition's build panicked: the release runs plainly after it.
func spaceIndexFor(g *Engine, n int, partitioned bool) *Partition {
	var part *Partition
	if partitioned {
		workers, release := g.Workers(n) // want `release is not deferred`
		part = build(workers)
		release()
	}
	return part
}

// DiscardedRelease drops the release closure.
func DiscardedRelease(g *Engine, n int) int {
	workers, _ := g.Workers(n) // want `release closure from g\.Workers is discarded`
	return workers
}

// NeverCalled binds the release closure and falls off the end without
// running it.
func NeverCalled(g *Engine, n int, out []*Partition) {
	workers, release := g.combineWorkers(n) // want `borrow from g\.combineWorkers never released`
	_ = release
	out[0] = build(workers)
}
