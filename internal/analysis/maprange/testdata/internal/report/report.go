// Package report is the maprange fixture: map-ranging loops feeding
// order-sensitive and order-insensitive consumers.
package report

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
)

// --- violating patterns ---

// Names returns the keys in random iteration order.
func Names(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `\[maprange\] map iteration order reaches a slice built by append`
	}
	return out
}

// Joined concatenates in random iteration order.
func Joined(m map[string]int) string {
	s := ""
	for k := range m {
		s += k // want `\[maprange\] map iteration order reaches a string built by \+=`
	}
	return s
}

// Dump streams lines in random iteration order.
func Dump(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `\[maprange\] map iteration order reaches fmt output`
	}
}

// Build writes a builder in random iteration order.
func Build(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want `\[maprange\] map iteration order reaches a buffer write`
	}
	return b.String()
}

// Enc stands in for json.Encoder and friends.
type Enc struct{}

// Encode pretends to write v to a stream.
func (e *Enc) Encode(v int) error { return nil }

// Stream encodes values in random iteration order.
func Stream(e *Enc, m map[string]int) {
	for _, v := range m {
		e.Encode(v) // want `\[maprange\] map iteration order reaches an Encode call`
	}
}

// Report pretends to emit a finding.
func Report(s string) {}

// Audit reports keys in random iteration order.
func Audit(m map[string]bool) {
	for k := range m {
		Report(k) // want `\[maprange\] map iteration order reaches a Report call`
	}
}

// Coins draws from a seeded generator in random iteration order, so one
// seed flips a different coin for each key in each process.
func Coins(rng *rand.Rand, m map[string]int) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = rng.Intn(2) == 0 // want `\[maprange\] map iteration order reaches a draw from a seeded \*rand.Rand`
	}
	return out
}

// --- clean look-alikes ---

// SortedNames collects then sorts: deterministic.
func SortedNames(m map[string]int) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Invert builds another map; maps have no order to corrupt.
func Invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// Sum folds commutatively.
func Sum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// set is a deterministic representation regardless of insertion order.
type set map[string]bool

// Add inserts k.
func (s set) Add(k string) { s[k] = true }

// Collect fills a set: order-insensitive.
func Collect(m map[string]int, s set) {
	for k := range m {
		s.Add(k)
	}
}

// PerKey builds one string per iteration: the accumulator restarts each
// time, so iteration order never reaches it.
func PerKey(m map[string][]int, sink func(string)) {
	for k, vs := range m {
		line := k
		for _, v := range vs {
			line += string(rune('0' + v))
		}
		sink(line)
	}
}

// SortedCoins draws in sorted key order: one seed, one outcome.
func SortedCoins(rng *rand.Rand, m map[string]int) map[string]bool {
	out := make(map[string]bool, len(m))
	for _, k := range SortedNames(m) {
		out[k] = rng.Intn(2) == 0
	}
	return out
}

// JoinSorted ranges over a sorted slice, not the map.
func JoinSorted(m map[string]int) string {
	s := ""
	for _, k := range SortedNames(m) {
		s += k
	}
	return s
}
