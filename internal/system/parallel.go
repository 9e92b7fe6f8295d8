package system

import "sync"

// This file holds the package's parallel-execution primitives: the typed
// fan-outs ParFill and ParMap, which hand each shard the only part of a
// slice it may write. How many workers a sweep may use is the caller's
// budget to decide (see logic.Engine).

// ParFill splits dst into at most workers contiguous parts and calls
// fill(shard, part, lo) on each, where part is dst[lo:lo+len(part)] with
// its capacity cut at its end, so a shard can write only its own
// elements. The first part runs on the calling goroutine, every other on a
// goroutine of its own, and ParFill returns once all have finished. The
// parts tile dst exactly once and their boundaries depend only on len(dst)
// and workers. With one worker, or one element, fill runs once on the
// caller over all of dst; with an empty dst it never runs.
//
// ParFill holds the engine's only go statement: every sharded sweep in
// internal/system and internal/logic fans out through it.
func ParFill[T any](dst []T, workers int, fill func(shard int, part []T, lo int)) {
	chunk, count := split(len(dst), workers)
	if count <= 1 {
		if count == 1 {
			fill(0, dst, 0)
		}
		return
	}
	var wg sync.WaitGroup
	for s := 1; s < count; s++ {
		lo := s * chunk
		hi := min(lo+chunk, len(dst))
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill(s, dst[lo:hi:hi], lo)
		}()
	}
	fill(0, dst[:chunk:chunk], 0)
	wg.Wait()
}

// ParMap is ParFill for shards that also produce a value: it splits dst
// as ParFill does and returns f's results in shard order.
func ParMap[T, R any](dst []T, workers int, f func(shard int, part []T, lo int) R) []R {
	chunk, count := split(len(dst), workers)
	out := make([]R, count)
	if count == 1 {
		out[0] = f(0, dst, 0) // on the caller, as ParFill runs one part
		return out
	}
	// count workers over count slots hand shard s exactly out[s:s+1].
	ParFill(out, count, func(s int, slot []R, _ int) {
		lo := s * chunk
		hi := min(lo+chunk, len(dst))
		slot[0] = f(s, dst[lo:hi:hi], lo)
	})
	return out
}

// split returns the part length and the part count ParFill uses for n
// elements and the given worker count; the last part may be shorter.
func split(n, workers int) (chunk, count int) {
	if n <= 0 {
		return 0, 0
	}
	workers = max(workers, 1)
	chunk = (n + workers - 1) / workers
	return chunk, (n + chunk - 1) / chunk
}
