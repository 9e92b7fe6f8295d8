package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Formula operators.
const (
	opProp = iota
	opNot
	opAnd
	opOr
	opKnow
	opPrGeq
	opPrLeq
	opEventually
	opAlways
	opEveryone
	opCommon
)

// formula is a formula of kpad's ASCII syntax as a tree, with its text.
// Agents are 0-based here and 1-based in the text.
type formula struct {
	op       int
	prop     int
	agent    int
	group    []int
	num, den int64
	a, b     *formula
	text     string
}

func prop(j int) *formula { return &formula{op: opProp, prop: j, text: "p" + strconv.Itoa(j)} }

func unary(op int, a *formula) *formula {
	prefix := map[int]string{opNot: "!", opEventually: "F ", opAlways: "G "}[op]
	return &formula{op: op, a: a, text: prefix + paren(a)}
}

func binary(op int, a, b *formula) *formula {
	sym := " & "
	if op == opOr {
		sym = " | "
	}
	return &formula{op: op, a: a, b: b, text: paren(a) + sym + paren(b)}
}

func know(i int, a *formula) *formula {
	return &formula{op: opKnow, agent: i, a: a, text: "K" + strconv.Itoa(i+1) + " " + paren(a)}
}

func pr(i int, a *formula, num, den int64, geq bool) *formula {
	op, cmp := opPrGeq, ">="
	if !geq {
		op, cmp = opPrLeq, "<="
	}
	return &formula{op: op, agent: i, a: a, num: num, den: den,
		text: fmt.Sprintf("Pr%d(%s) %s %d/%d", i+1, a.text, cmp, num, den)}
}

func group(op int, g []int, a *formula) *formula {
	names := make([]string, len(g))
	for k, i := range g {
		names[k] = strconv.Itoa(i + 1)
	}
	letter := "E"
	if op == opCommon {
		letter = "C"
	}
	return &formula{op: op, group: g, a: a, text: letter + "{" + strings.Join(names, ",") + "} " + paren(a)}
}

func paren(f *formula) string {
	if f.op == opProp {
		return f.text
	}
	return "(" + f.text + ")"
}

// generator draws random formulas over a model's agents and propositions,
// never the same text twice.
type generator struct {
	agents, props int
	rng           *rand.Rand
	seen          map[string]bool
}

func newGenerator(m *model, rng *rand.Rand, seen []*formula) *generator {
	g := &generator{agents: m.agents, props: m.props, rng: rng, seen: make(map[string]bool)}
	for _, f := range seen {
		g.seen[f.text] = true
	}
	return g
}

// fresh returns n formulas the generator has not returned before. Each
// has a knowledge or probability operator outermost, so each costs kpad
// at least one sweep over an agent's information cells.
func (g *generator) fresh(n int) []*formula {
	out := make([]*formula, 0, n)
	for len(out) < n {
		sub := g.sub(2)
		var f *formula
		switch g.rng.Intn(5) {
		case 0:
			f = know(g.rng.Intn(g.agents), sub)
		case 1, 2:
			f = g.pr(sub)
		case 3:
			f = group(opEveryone, g.group(), sub)
		default:
			f = group(opCommon, g.group(), sub)
		}
		if !g.seen[f.text] {
			g.seen[f.text] = true
			out = append(out, f)
		}
	}
	return out
}

func (g *generator) sub(depth int) *formula {
	if depth == 0 || g.rng.Intn(3) == 0 {
		return prop(g.rng.Intn(g.props))
	}
	switch g.rng.Intn(8) {
	case 0:
		return unary(opNot, g.sub(depth-1))
	case 1:
		return binary(opAnd, g.sub(depth-1), g.sub(depth-1))
	case 2:
		return binary(opOr, g.sub(depth-1), g.sub(depth-1))
	case 3:
		return know(g.rng.Intn(g.agents), g.sub(depth-1))
	case 4, 5:
		return g.pr(g.sub(depth - 1))
	case 6:
		return unary(opEventually+g.rng.Intn(2), g.sub(depth-1))
	default:
		return group(opEveryone+g.rng.Intn(2), g.group(), g.sub(depth-1))
	}
}

// pr wraps a in a probability bound num/den in lowest terms, den ≤ 12.
func (g *generator) pr(a *formula) *formula {
	den := 2 + g.rng.Int63n(11)
	num := 1 + g.rng.Int63n(den-1)
	d := gcd(num, den)
	return pr(g.rng.Intn(g.agents), a, num/d, den/d, g.rng.Intn(2) == 0)
}

// group draws at least two agents, ascending.
func (g *generator) group() []int {
	for {
		var out []int
		for i := 0; i < g.agents; i++ {
			if g.rng.Intn(2) == 0 {
				out = append(out, i)
			}
		}
		if len(out) >= 2 {
			return out
		}
	}
}
