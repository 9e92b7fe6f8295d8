package poolpair_test

import (
	"testing"

	"kpa/internal/analysis/analysistest"
	"kpa/internal/analysis/poolpair"
)

// TestFixture checks caught violations (missing put, one-armed put,
// early return nested in a branch, use-after-put, discarded checkout)
// and clean passes (defer put, straight-line put, both-arm put, put
// before an early return, goroutine-confined checkout, and a cache
// whose get/put shapes must not be mistaken for a pool).
func TestFixture(t *testing.T) {
	analysistest.Run(t, "testdata", poolpair.New())
}
