// Package logic exercises cancel-poll enforcement: polled sweeps and
// fixpoints stay clean (directly, through in-package helpers, or
// through imported PollsCancel facts), unpolled loops with a hook in
// reach are flagged, and code without a capability is exempt.
package logic

import "kpa/internal/system"

// Evaluator carries the cancel hook as a field, so every method has the
// capability in reach.
type Evaluator struct {
	cancel func() error
	rounds int
}

// checkCancel consults the hook: the in-package polling helper.
func (e *Evaluator) checkCancel() error {
	if e.cancel == nil {
		return nil
	}
	return e.cancel()
}

// FixpointPolled polls once per round through the helper.
func (e *Evaluator) FixpointPolled() error {
	for {
		if err := e.checkCancel(); err != nil {
			return err
		}
		if e.rounds == 0 {
			return nil
		}
		e.rounds--
	}
}

// FixpointUnpolled spins rounds with the hook one field away and never
// consults it.
func (e *Evaluator) FixpointUnpolled() int {
	total := 0
	for { // want `condition-less fixpoint loop without a cancel poll`
		if e.rounds == 0 {
			return total
		}
		total++
		e.rounds--
	}
}

// SweepPolled tests the captured stop function inside the stride gate.
func SweepPolled(workers int, stop func() bool, out []int32) {
	system.ParFill(out, workers, func(_ int, part []int32, lo int) {
		for j := range part {
			if stop != nil && j&4095 == 0 && j > 0 && stop() {
				return
			}
			part[j] = int32(lo + j)
		}
	})
}

// SweepUnpolled captures the hook and ignores it.
func SweepUnpolled(workers int, stop func() bool, out []int32) {
	system.ParFill(out, workers, func(_ int, part []int32, lo int) {
		for j := 0; j < len(part); j++ { // want `shard sweep over its part without a cancel poll`
			part[j] = int32(lo + j)
		}
	})
}

// SweepFromLo counts from lo and ignores the hook: a loop bounded by lo
// is a sweep too.
func SweepFromLo(workers int, stop func() bool, out []int32) {
	system.ParFill(out, workers, func(_ int, part []int32, lo int) {
		for id := lo; id < lo+len(part); id++ { // want `shard sweep over its part without a cancel poll`
			part[id-lo] = int32(id)
		}
	})
}

// SweepViaHelper polls through the imported system.PollStop fact.
func SweepViaHelper(workers int, stop func() bool, out []int32) {
	system.ParFill(out, workers, func(_ int, part []int32, lo int) {
		for j := range part {
			if system.PollStop(stop) {
				return
			}
			part[j] = int32(lo + j)
		}
	})
}

// SweepNoCapability has no hook anywhere in reach: exempt, the caller
// owns responsiveness.
func SweepNoCapability(workers int, out []int32) {
	system.ParFill(out, workers, func(_ int, part []int32, lo int) {
		for j := range part {
			part[j] = int32(lo + j)
		}
	})
}
