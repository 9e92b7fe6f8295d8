package release_test

import (
	"testing"

	"kpa/internal/analysis/analysistest"
	"kpa/internal/analysis/release"
)

// TestFixture runs the merged fixture: pooled workers (missing, one-armed
// and early-return puts, use after put, a discarded checkout, and the
// clean shapes beside a cache whose get/put must not pass for a pool),
// Gate tokens (the zero guard, the closure transfer, leaks through a
// return or off the end, an undeferred release, a discarded count) with
// the hand-rolled fan-out rule, and release closures: the ReleaseFunc facts
// of Workers and of the functions that pass its closure on, a deferred
// call, a plain call after another call, an early return, the
// spaceIndexFor shape that leaked on a panic, and a caller in another
// package.
func TestFixture(t *testing.T) {
	analysistest.Run(t, "testdata", release.New())
}
