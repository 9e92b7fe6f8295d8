package main

import (
	"math/bits"
	"math/rand"
	"strconv"
	"strings"
)

// size fixes the shape of the generated system.
type size struct {
	agents, runs, length, buckets, props int
}

// model is a seeded synchronous "broom": one computation tree whose root
// branches into runs of equal length, the root picking run r with
// probability weight[r]/total. At time k ≥ 1 agent i observes one of
// buckets values drawn per point, so each agent's information cells cut
// every time slice into about buckets cells; at time 0 every agent sees the
// same root. The benchmark uploads the system to kpad and checks kpad's
// verdicts against eval, a direct model checker over the same arrays.
//
// Points are numbered p = run*length + time.
type model struct {
	agents, runs, length, buckets, props int

	weight []int64
	total  int64
	cellOf [][]int32   // [agent][point] → cell; cell 0 is time 0
	cells  [][][]int32 // [agent][cell] → points, ascending
	truth  []pset      // [prop] → points where it holds
}

func newModel(rng *rand.Rand, sz size) *model {
	m := &model{agents: sz.agents, runs: sz.runs, length: sz.length, buckets: sz.buckets, props: sz.props}
	n := m.points()
	m.weight = make([]int64, m.runs)
	for r := range m.weight {
		m.weight[r] = 1 + rng.Int63n(4)
		m.total += m.weight[r]
	}
	m.cellOf = make([][]int32, m.agents)
	m.cells = make([][][]int32, m.agents)
	for i := range m.cellOf {
		m.cellOf[i] = make([]int32, n)
		m.cells[i] = make([][]int32, 1+(m.length-1)*m.buckets)
		for p := 0; p < n; p++ {
			if k := p % m.length; k > 0 {
				m.cellOf[i][p] = int32(1 + (k-1)*m.buckets + rng.Intn(m.buckets))
			}
			c := m.cellOf[i][p]
			m.cells[i][c] = append(m.cells[i][c], int32(p))
		}
	}
	// Proposition j holds with probability (j+1)/(props+1), the same for
	// every seed, so that seeds change which points satisfy what but not
	// how much work a formula costs.
	m.truth = make([]pset, m.props)
	for j := range m.truth {
		m.truth[j] = newPset(n)
		for p := 0; p < n; p++ {
			if p%m.length > 0 && rng.Intn(m.props+1) <= j {
				m.truth[j].set(p)
			}
		}
	}
	return m
}

func (m *model) points() int { return m.runs * m.length }

// uploadBody renders the POST /v1/systems request that registers the
// system under name: an internal/encode document with one tree, and one
// envContains proposition per prop, the environment of every point listing
// the propositions true there as |pJ| tags.
func (m *model) uploadBody(name string) []byte {
	var b strings.Builder
	b.Grow(m.points() * 100)
	b.WriteString(`{"name":` + strconv.Quote(name) + `,"doc":{"agents":` + strconv.Itoa(m.agents))
	b.WriteString(`,"trees":[{"adversary":"broom","root":{"env":"root","locals":[`)
	for i := 0; i < m.agents; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`"a` + strconv.Itoa(i) + `:t0"`)
	}
	b.WriteString(`],"children":[`)
	for r := 0; r < m.runs; r++ {
		if r > 0 {
			b.WriteByte(',')
		}
		g := gcd(m.weight[r], m.total)
		b.WriteString(`{"prob":"` + strconv.FormatInt(m.weight[r]/g, 10) + "/" + strconv.FormatInt(m.total/g, 10) + `","node":`)
		m.writeNode(&b, r, 1)
		b.WriteByte('}')
	}
	b.WriteString(`]}}],"props":{`)
	for j := 0; j < m.props; j++ {
		if j > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`"p` + strconv.Itoa(j) + `":{"envContains":"|p` + strconv.Itoa(j) + `|"}`)
	}
	b.WriteString(`}}}`)
	return []byte(b.String())
}

// writeNode renders the chain of run r from time k to the end of the run.
func (m *model) writeNode(b *strings.Builder, r, k int) {
	p := r*m.length + k
	b.WriteString(`{"env":"r` + strconv.Itoa(r) + "." + strconv.Itoa(k))
	for j := 0; j < m.props; j++ {
		if m.truth[j].has(p) {
			b.WriteString("|p" + strconv.Itoa(j) + "|")
		}
	}
	b.WriteString(`","locals":[`)
	for i := 0; i < m.agents; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		bucket := (int(m.cellOf[i][p]) - 1) % m.buckets
		b.WriteString(`"a` + strconv.Itoa(i) + ":t" + strconv.Itoa(k) + ":b" + strconv.Itoa(bucket) + `"`)
	}
	b.WriteByte(']')
	if k+1 < m.length {
		b.WriteString(`,"children":[{"prob":"1","node":`)
		m.writeNode(b, r, k+1)
		b.WriteString(`}]`)
	}
	b.WriteByte('}')
}

// eval returns the extension of f, memoized by formula text.
func (m *model) eval(f *formula, memo map[string]pset) pset {
	if ext, ok := memo[f.text]; ok {
		return ext
	}
	var ext pset
	switch f.op {
	case opProp:
		ext = m.truth[f.prop]
	case opNot:
		ext = m.complement(m.eval(f.a, memo))
	case opAnd, opOr:
		l, r := m.eval(f.a, memo), m.eval(f.b, memo)
		ext = newPset(m.points())
		for w := range ext {
			if f.op == opAnd {
				ext[w] = l[w] & r[w]
			} else {
				ext[w] = l[w] | r[w]
			}
		}
	case opKnow:
		ext = m.know(f.agent, m.eval(f.a, memo))
	case opPrGeq, opPrLeq:
		ext = m.prob(f.agent, m.eval(f.a, memo), f.num, f.den, f.op == opPrGeq)
	case opEventually, opAlways:
		ext = m.temporal(m.eval(f.a, memo), f.op == opEventually)
	case opEveryone:
		ext = m.everyone(f.group, m.eval(f.a, memo))
	case opCommon:
		// Greatest fixed point of X = E_G(φ ∧ X), from X = every point.
		sub := m.eval(f.a, memo)
		ext = m.complement(newPset(m.points()))
		for {
			and := newPset(m.points())
			for w := range and {
				and[w] = sub[w] & ext[w]
			}
			next := m.everyone(f.group, and)
			if next.equal(ext) {
				break
			}
			ext = next
		}
	}
	memo[f.text] = ext
	return ext
}

func (m *model) complement(s pset) pset {
	out := newPset(m.points())
	for w := range out {
		out[w] = ^s[w]
	}
	if tail := m.points() % 64; tail != 0 {
		out[len(out)-1] &= 1<<tail - 1
	}
	return out
}

// know is K_i: the cells of agent i contained in ext.
func (m *model) know(i int, ext pset) pset {
	out := newPset(m.points())
	for _, cell := range m.cells[i] {
		all := true
		for _, p := range cell {
			if !ext.has(int(p)) {
				all = false
				break
			}
		}
		if all {
			for _, p := range cell {
				out.set(int(p))
			}
		}
	}
	return out
}

// prob is Pr_i(φ) ≥ num/den (geq) or ≤ num/den. The system is synchronous,
// so a cell meets each of its runs exactly once and the probability of ext
// in a cell is the weight of its runs through ext over the weight of all
// its runs.
func (m *model) prob(i int, ext pset, num, den int64, geq bool) pset {
	out := newPset(m.points())
	for _, cell := range m.cells[i] {
		var hit, all int64
		for _, p := range cell {
			w := m.weight[int(p)/m.length]
			all += w
			if ext.has(int(p)) {
				hit += w
			}
		}
		holds := hit*den >= num*all
		if !geq {
			holds = hit*den <= num*all
		}
		if holds {
			for _, p := range cell {
				out.set(int(p))
			}
		}
	}
	return out
}

// temporal is F φ (eventually) or G φ (henceforth) along each run.
func (m *model) temporal(ext pset, eventually bool) pset {
	out := newPset(m.points())
	for r := 0; r < m.runs; r++ {
		acc := !eventually
		for k := m.length - 1; k >= 0; k-- {
			p := r*m.length + k
			if eventually {
				acc = acc || ext.has(p)
			} else {
				acc = acc && ext.has(p)
			}
			if acc {
				out.set(p)
			}
		}
	}
	return out
}

// everyone is E_G: the intersection of K_i over the group.
func (m *model) everyone(group []int, ext pset) pset {
	out := m.complement(newPset(m.points()))
	for _, i := range group {
		k := m.know(i, ext)
		for w := range out {
			out[w] &= k[w]
		}
	}
	return out
}

// pset is a point set as a bitset over point numbers.
type pset []uint64

func newPset(n int) pset { return make(pset, (n+63)/64) }

func (s pset) has(p int) bool { return s[p>>6]&(1<<(uint(p)&63)) != 0 }

func (s pset) set(p int) { s[p>>6] |= 1 << (uint(p) & 63) }

func (s pset) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

func (s pset) equal(t pset) bool {
	for w := range s {
		if s[w] != t[w] {
			return false
		}
	}
	return true
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
