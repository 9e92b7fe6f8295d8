package system

import (
	"math/bits"
	"strconv"
	"strings"
)

// RunSet is a set of run indices within one computation tree, backed by a
// bitset. Because our trees are finite, every RunSet is a measurable set of
// runs (the σ-algebra generated by finite prefixes is the full power set),
// so RunSet is the concrete form of the paper's measurable sets R′ ∈ X_A.
type RunSet struct {
	n    int
	bits []uint64
}

// NewRunSet returns an empty set over a universe of n runs.
func NewRunSet(n int) RunSet {
	return RunSet{n: n, bits: make([]uint64, (n+63)/64)}
}

// Universe returns the size of the run universe the set ranges over.
func (s RunSet) Universe() int { return s.n }

// Add inserts run r.
func (s RunSet) Add(r int) { s.bits[r/64] |= 1 << (r % 64) }

// Remove deletes run r.
func (s RunSet) Remove(r int) { s.bits[r/64] &^= 1 << (r % 64) }

// Contains reports whether run r is in the set.
func (s RunSet) Contains(r int) bool { return s.bits[r/64]&(1<<(r%64)) != 0 }

// Len returns the number of runs in the set.
func (s RunSet) Len() int {
	c := 0
	for _, w := range s.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether the set is empty.
func (s RunSet) IsEmpty() bool {
	for _, w := range s.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s RunSet) Clone() RunSet {
	c := RunSet{n: s.n, bits: make([]uint64, len(s.bits))}
	copy(c.bits, s.bits)
	return c
}

// Union returns s ∪ t. Both sets must range over the same universe.
func (s RunSet) Union(t RunSet) RunSet {
	u := s.Clone()
	for i := range u.bits {
		u.bits[i] |= t.bits[i]
	}
	return u
}

// Intersect returns s ∩ t.
func (s RunSet) Intersect(t RunSet) RunSet {
	u := s.Clone()
	for i := range u.bits {
		u.bits[i] &= t.bits[i]
	}
	return u
}

// Minus returns s \ t.
func (s RunSet) Minus(t RunSet) RunSet {
	u := s.Clone()
	for i := range u.bits {
		u.bits[i] &^= t.bits[i]
	}
	return u
}

// Complement returns the complement of s within its universe.
func (s RunSet) Complement() RunSet {
	u := RunSet{n: s.n, bits: make([]uint64, len(s.bits))}
	for i := range u.bits {
		u.bits[i] = ^s.bits[i]
	}
	// Clear bits beyond the universe.
	if rem := s.n % 64; rem != 0 && len(u.bits) > 0 {
		u.bits[len(u.bits)-1] &= (1 << rem) - 1
	}
	return u
}

// SubsetOf reports whether every run of s is in t.
func (s RunSet) SubsetOf(t RunSet) bool {
	for i := range s.bits {
		if s.bits[i]&^t.bits[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same runs.
func (s RunSet) Equal(t RunSet) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.bits {
		if s.bits[i] != t.bits[i] {
			return false
		}
	}
	return true
}

// Iterate visits the runs of the set in increasing order, walking set words
// with trailing-zero counts: cost is proportional to the population, not
// the universe.
func (s RunSet) Iterate(visit func(r int)) {
	for wi, w := range s.bits {
		for w != 0 {
			visit(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Runs returns the runs in the set in increasing order.
func (s RunSet) Runs() []int {
	out := make([]int, 0, s.Len())
	s.Iterate(func(r int) { out = append(out, r) })
	return out
}

func (s RunSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.Iterate(func(r int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Itoa(r))
	})
	b.WriteByte('}')
	return b.String()
}
