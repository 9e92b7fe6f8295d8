// Package system is the fixture's miniature sharded kernel layer. Its
// polling helpers export PollsCancel facts that the logic package's
// sweeps consume through the driver.
package system

import "sync"

// ParFill splits dst into contiguous parts and runs fill on each,
// concurrently.
func ParFill[T any](dst []T, workers int, fill func(shard int, part []T, lo int)) {
	if len(dst) == 0 {
		return
	}
	chunk := (len(dst) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(dst); lo += chunk {
		hi := min(lo+chunk, len(dst))
		wg.Add(1)
		go func(shard, lo, hi int) {
			defer wg.Done()
			fill(shard, dst[lo:hi:hi], lo)
		}(lo/chunk, lo, hi)
	}
	wg.Wait()
}

// KnowExtension sweeps the universe with a polled shard body: the
// sweep stays responsive and the function itself becomes a polling
// helper for its callers.
func KnowExtension(workers int, stop func() bool, out []bool) { // want-fact:"cancelpoll:PollsCancel"
	ParFill(out, workers, func(_ int, part []bool, lo int) {
		for j := range part {
			if stop != nil && (lo+j)&15 == 0 && stop() {
				return
			}
			part[j] = true
		}
	})
}

// PollStop consults the hook once; sweeps may poll through it instead
// of calling the hook value directly.
func PollStop(stop func() bool) bool { // want-fact:"cancelpoll:PollsCancel"
	return stop != nil && stop()
}

// UnpolledExtension has the hook in scope but never consults it inside
// the sweep: a cancelled query runs the whole range anyway.
func UnpolledExtension(workers int, stop func() bool, out []bool) {
	ParFill(out, workers, func(_ int, part []bool, _ int) {
		for j := range part { // want `shard sweep over its part without a cancel poll`
			part[j] = true
		}
	})
}

// Retry is a condition-less loop with no hook anywhere in reach (the
// gate CAS pattern): exempt by construction.
func Retry(try func(int) bool) int {
	n := 0
	for {
		if try(n) {
			return n
		}
		n++
	}
}
