// Package logic is the fixture consumer of the dense engine: each
// function is one ownership pattern, violating or clean.
package logic

import (
	"kpa/internal/setops"
	"kpa/internal/system"
)

// Eval memoizes extensions by key, exactly like the real evaluator; sets
// read back out of memo are shared by every caller.
type Eval struct {
	idx    *system.Index
	memo   map[string]*system.DenseSet
	cached *system.DenseSet
}

// --- violating patterns ---

// MutateMemo mutates a set read from the memo table.
func (e *Eval) MutateMemo(k string, t *system.DenseSet) {
	s := e.memo[k]
	s.UnionWith(t) // want `\[denseown\] \(\*DenseSet\)\.UnionWith mutates a set this function does not exclusively own`
}

// MutateParam mutates a set the caller still owns.
func MutateParam(s *system.DenseSet) {
	s.Add(1) // want `\[denseown\] \(\*DenseSet\)\.Add mutates a set this function does not exclusively own`
}

// PublishThenMutate stores a fresh set into the memo and keeps mutating:
// by then other lookups may hold the same pointer.
func (e *Eval) PublishThenMutate(k string) {
	out := e.idx.NewDense()
	e.memo[k] = out
	out.Add(3) // want `\[denseown\] \(\*DenseSet\)\.Add mutates a set this function does not exclusively own`
}

// MutateField mutates a set held in a struct field.
func (e *Eval) MutateField(t *system.DenseSet) {
	e.cached.UnionWith(t) // want `\[denseown\] \(\*DenseSet\)\.UnionWith mutates a set this function does not exclusively own`
}

// HalfFresh is fresh on only one path, so after the join the set must be
// treated as shared.
func (e *Eval) HalfFresh(k string, big bool) {
	var s *system.DenseSet
	if big {
		s = e.idx.FullDense()
	} else {
		s = e.memo[k]
	}
	s.Remove(2) // want `\[denseown\] \(\*DenseSet\)\.Remove mutates a set this function does not exclusively own`
}

// RacyMutate launches a goroutine that mutates a memoized set: the
// literal escapes, so its captures are shared no matter what the
// enclosing function owned.
func (e *Eval) RacyMutate(k string, t *system.DenseSet) {
	s := e.memo[k]
	go func() {
		s.UnionWith(t) // want `\[denseown\] \(\*DenseSet\)\.UnionWith mutates a set this function does not exclusively own`
	}()
}

// AliasedResult mutates the result of a pass-through helper, which still
// aliases the argument.
func AliasedResult(u *system.DenseSet) {
	t := setops.Same(u)
	t.Add(5) // want `\[denseown\] \(\*DenseSet\)\.Add mutates a set this function does not exclusively own`
}

// --- clean look-alikes ---

// CloneThenMutate copies the memoized set first; the clone is owned.
func (e *Eval) CloneThenMutate(k string, t *system.DenseSet) {
	c := e.memo[k].Clone()
	c.UnionWith(t)
	e.memo[k+"+"] = c
}

// BuildThenPublish finishes all mutation before the set escapes.
func (e *Eval) BuildThenPublish(k string) {
	out := e.idx.NewDense()
	out.Add(1)
	out.Add(2)
	e.memo[k] = out
}

// ReadShared only reads the shared set: reads need no ownership.
func (e *Eval) ReadShared(k string) int {
	s := e.memo[k]
	n := 0
	s.Iterate(func(id int) {
		if s.Contains(id) {
			n++
		}
	})
	return n + s.Len()
}

// AccumulateEachRun fills a fresh set inside an inline system callback —
// the callback runs before EachRun returns, so ownership survives it.
func (e *Eval) AccumulateEachRun() *system.DenseSet { // want-fact:"denseown:FreshSetResult"
	out := e.idx.NewDense()
	e.idx.EachRun(func(id int) {
		if id%2 == 0 {
			out.Add(id)
		}
	})
	return out
}

// RacyClone is the clean twin of RacyMutate: the goroutine clones before
// mutating, so the shared set is never written.
func (e *Eval) RacyClone(k string, t *system.DenseSet) {
	s := e.memo[k]
	go func() {
		c := s.Clone()
		c.UnionWith(t)
	}()
}

// FreshAcross mutates the result of a cross-package fresh helper: the
// FreshSetResult fact carried by the driver proves ownership.
func FreshAcross(x *system.Index) *system.DenseSet { // want-fact:"denseown:FreshSetResult"
	s := setops.Singleton(x, 2)
	s.Add(4)
	return s
}

// BothBranchesFresh allocates on every path, so the join keeps
// ownership.
func (e *Eval) BothBranchesFresh(big bool) *system.DenseSet { // want-fact:"denseown:FreshSetResult"
	var s *system.DenseSet
	if big {
		s = e.idx.FullDense()
	} else {
		s = e.idx.NewDense()
	}
	s.Add(0)
	return s
}

// --- sharded-mutation patterns (the parallel engine's fan-out idiom) ---

// ShardedFill reads a fresh owned set from a literal callback handed
// straight to ParFill and fills it after the barrier: the callback runs to
// completion inside the trusted call, so capturing the set does not
// publish it.
func (e *Eval) ShardedFill(n int) *system.DenseSet { // want-fact:"denseown:FreshSetResult"
	out := e.idx.NewDense()
	hits := make([]bool, n)
	system.ParFill(hits, 4, func(shard int, part []bool, lo int) {
		for j := range part {
			part[j] = out.Contains(lo + j)
		}
	})
	for id, hit := range hits {
		if !hit {
			out.Add(id)
		}
	}
	return out
}

// ShardedScratchMerge is the worker-owned-scratch idiom: every shard
// allocates its own fresh set inside the callback, fills it, and returns
// it through ParMap; the merge into a fresh result happens after the
// barrier. All mutation targets are owned, so the whole dance is clean.
// (Mutating a returned scratch set instead of merging it would be flagged:
// slice elements are shared as far as ownership is concerned.)
func (e *Eval) ShardedScratchMerge(n int) *system.DenseSet { // want-fact:"denseown:FreshSetResult"
	scratch := system.ParMap(make([]bool, n), 4, func(shard int, part []bool, lo int) *system.DenseSet {
		local := e.idx.NewDense()
		for j := range part {
			local.Add(lo + j)
		}
		return local
	})
	out := e.idx.NewDense()
	for _, s := range scratch {
		if s != nil {
			out.UnionWith(s)
		}
	}
	return out
}

// ShardedMutateShared shards a sweep over a memoized set: transparency does
// not confer ownership the function never had.
func (e *Eval) ShardedMutateShared(k string, n int) {
	s := e.memo[k]
	system.ParFill(make([]bool, n), 4, func(shard int, part []bool, lo int) {
		for j := range part {
			s.Add(lo + j) // want `\[denseown\] \(\*DenseSet\)\.Add mutates a set this function does not exclusively own`
		}
	})
}

// HandRolledShards spawns its own goroutines instead of going through
// ParFill: a go'd literal escapes the function, so even a fresh set's
// ownership is poisoned inside it — the race-free discipline lives in the
// fan-out helper, not in the caller's good intentions.
func (e *Eval) HandRolledShards(n int) *system.DenseSet {
	out := e.idx.NewDense()
	for shard := 0; shard < 4; shard++ {
		go func(shard int) {
			for id := shard; id < n; id += 4 {
				out.Add(id) // want `\[denseown\] \(\*DenseSet\)\.Add mutates a set this function does not exclusively own`
			}
		}(shard)
	}
	return out
}
