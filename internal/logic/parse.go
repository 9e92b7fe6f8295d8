package logic

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"kpa/internal/rat"
	"kpa/internal/system"
)

// Parse parses a formula from the ASCII syntax used by String():
//
//	φ ::= φ U φ                      (until; right associative, lowest)
//	    | φ -> φ                     (implication; right associative)
//	    | φ | φ                      (disjunction)
//	    | φ & φ                      (conjunction)
//	    | !φ  | X φ | F φ | G φ      (not, next, eventually, henceforth)
//	    | K<i> φ | K<i>^q φ          (knowledge; K1^0.99 p = K_1(Pr_1(p)≥.99))
//	    | K<i>^[a,b] φ               (interval knowledge K_i^[a,b] φ)
//	    | E{i,j}[^q] φ | C{i,j}[^q] φ (everyone / common knowledge, optional
//	                                   probabilistic superscript)
//	    | Pr<i>(φ) >= q | Pr<i>(φ) <= q
//	    | (φ) | true | false | IDENT
//
// Agents are 1-based in the syntax: K1 is agent p_1. Rationals q may be
// written 1/2, 0.99 or 1.
func Parse(input string) (Formula, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	f, err := p.parseUntil()
	if err != nil {
		return nil, err
	}
	if !p.atEnd() {
		return nil, fmt.Errorf("logic: unexpected %q after formula", p.peek().text)
	}
	return f, nil
}

// MustParse is Parse but panics on error; for tests and examples.
func MustParse(input string) Formula {
	f, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return f
}

type tokKind int

const (
	tokIdent tokKind = iota + 1
	tokNumber
	tokPunct // ( ) { } , ^ / ! & | and multi-char -> >= <=
	tokEOF
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func lex(input string) ([]token, error) {
	// Every token but the EOF spans at least one byte, so one allocation
	// holds them all.
	toks := make([]token, 0, len(input)+1)
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case unicode.IsLetter(c) || c == '_':
			j := i
			for j < len(input) && (unicode.IsLetter(rune(input[j])) ||
				unicode.IsDigit(rune(input[j])) || input[j] == '_') {
				j++
			}
			toks = append(toks, token{kind: tokIdent, text: input[i:j], pos: i})
			i = j
		case unicode.IsDigit(c):
			j := i
			for j < len(input) && (unicode.IsDigit(rune(input[j])) || input[j] == '.') {
				j++
			}
			toks = append(toks, token{kind: tokNumber, text: input[i:j], pos: i})
			i = j
		case strings.HasPrefix(input[i:], "->"),
			strings.HasPrefix(input[i:], ">="),
			strings.HasPrefix(input[i:], "<="):
			toks = append(toks, token{kind: tokPunct, text: input[i : i+2], pos: i})
			i += 2
		case strings.ContainsRune("(){},^/!&|[]", c):
			toks = append(toks, token{kind: tokPunct, text: input[i : i+1], pos: i})
			i++
		default:
			return nil, fmt.Errorf("logic: unexpected character %q at position %d", c, i)
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: len(input)})
	return toks, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) atEnd() bool { return p.peek().kind == tokEOF }

func (p *parser) acceptPunct(text string) bool {
	if t := p.peek(); t.kind == tokPunct && t.text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(text string) error {
	if !p.acceptPunct(text) {
		return fmt.Errorf("logic: expected %q at position %d, got %q",
			text, p.peek().pos, p.peek().text)
	}
	return nil
}

func (p *parser) parseUntil() (Formula, error) {
	left, err := p.parseImplies()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokIdent && t.text == "U" {
		p.next()
		right, err := p.parseUntil()
		if err != nil {
			return nil, err
		}
		return Until(left, right), nil
	}
	return left, nil
}

func (p *parser) parseImplies() (Formula, error) {
	left, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.acceptPunct("->") {
		right, err := p.parseImplies()
		if err != nil {
			return nil, err
		}
		return Implies(left, right), nil
	}
	return left, nil
}

func (p *parser) parseOr() (Formula, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptPunct("|") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = Or(left, right)
	}
	return left, nil
}

func (p *parser) parseAnd() (Formula, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.acceptPunct("&") {
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = And(left, right)
	}
	return left, nil
}

func (p *parser) parseUnary() (Formula, error) {
	t := p.peek()
	if t.kind == tokPunct {
		switch t.text {
		case "!":
			p.next()
			sub, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return Not(sub), nil
		case "(":
			p.next()
			f, err := p.parseUntil()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return f, nil
		}
		return nil, fmt.Errorf("logic: unexpected %q at position %d", t.text, t.pos)
	}
	if t.kind == tokNumber {
		return nil, fmt.Errorf("logic: unexpected number %q at position %d", t.text, t.pos)
	}
	if t.kind == tokEOF {
		return nil, fmt.Errorf("logic: unexpected end of formula")
	}

	// Identifier: keyword operators or a primitive proposition.
	switch {
	case t.text == "true":
		p.next()
		return True, nil
	case t.text == "false":
		p.next()
		return False, nil
	case t.text == "X" || t.text == "F" || t.text == "G":
		p.next()
		sub, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		switch t.text {
		case "X":
			return Next(sub), nil
		case "F":
			return Eventually(sub), nil
		default:
			return Always(sub), nil
		}
	case len(t.text) > 1 && t.text[0] == 'K' && allDigits(t.text[1:]):
		p.next()
		agent, err := agentFrom(t.text[1:])
		if err != nil {
			return nil, err
		}
		if p.acceptPunct("^") {
			// Either K<i>^q φ or the interval form K<i>^[a,b] φ.
			if p.acceptPunct("[") {
				lo, err := p.parseRational()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(","); err != nil {
					return nil, err
				}
				hi, err := p.parseRational()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct("]"); err != nil {
					return nil, err
				}
				if lo.Greater(hi) {
					return nil, fmt.Errorf("logic: empty interval [%s,%s]", lo, hi)
				}
				if hi.Greater(rat.One) {
					// 1−β would be a negative bound, which no
					// probability formula can state.
					return nil, fmt.Errorf("logic: interval [%s,%s] reaches past probability 1", lo, hi)
				}
				sub, err := p.parseUnary()
				if err != nil {
					return nil, err
				}
				return KInterval(agent, sub, lo, hi), nil
			}
			alpha, err := p.parseRational()
			if err != nil {
				return nil, err
			}
			sub, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return KPr(agent, sub, alpha), nil
		}
		sub, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return K(agent, sub), nil
	case strings.HasPrefix(t.text, "Pr") && allDigits(t.text[2:]) && len(t.text) > 2:
		p.next()
		agent, err := agentFrom(t.text[2:])
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		sub, err := p.parseUntil()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		geq := true
		switch {
		case p.acceptPunct(">="):
		case p.acceptPunct("<="):
			geq = false
		default:
			return nil, fmt.Errorf("logic: expected >= or <= after Pr%d(...) at position %d",
				agent+1, p.peek().pos)
		}
		bound, err := p.parseRational()
		if err != nil {
			return nil, err
		}
		if geq {
			return PrGeq(agent, sub, bound), nil
		}
		return PrLeq(agent, sub, bound), nil
	case (t.text == "E" || t.text == "C") && p.toks[p.pos+1].kind == tokPunct && p.toks[p.pos+1].text == "{":
		p.next()
		group, err := p.parseGroup()
		if err != nil {
			return nil, err
		}
		var alpha rat.Rat
		hasAlpha := false
		if p.acceptPunct("^") {
			alpha, err = p.parseRational()
			if err != nil {
				return nil, err
			}
			hasAlpha = true
		}
		sub, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		switch {
		case t.text == "E" && hasAlpha:
			return EveryonePr(group, sub, alpha), nil
		case t.text == "E":
			return Everyone(group, sub), nil
		case hasAlpha:
			return CommonPr(group, sub, alpha), nil
		default:
			return Common(group, sub), nil
		}
	default:
		p.next()
		return Prop(t.text), nil
	}
}

func (p *parser) parseGroup() ([]system.AgentID, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var group []system.AgentID
	for {
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("logic: expected agent number at position %d, got %q", t.pos, t.text)
		}
		agent, err := agentFrom(t.text)
		if err != nil {
			return nil, err
		}
		group = append(group, agent)
		if p.acceptPunct("}") {
			return group, nil
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
	}
}

func (p *parser) parseRational() (rat.Rat, error) {
	t := p.next()
	if t.kind != tokNumber {
		return rat.Rat{}, fmt.Errorf("logic: expected number at position %d, got %q", t.pos, t.text)
	}
	text := t.text
	if p.acceptPunct("/") {
		den := p.next()
		if den.kind != tokNumber {
			return rat.Rat{}, fmt.Errorf("logic: expected denominator at position %d", den.pos)
		}
		text += "/" + den.text
	}
	r, err := rat.Parse(text)
	if err != nil {
		return rat.Rat{}, fmt.Errorf("logic: bad rational %q: %v", text, err)
	}
	return r, nil
}

func agentFrom(digits string) (system.AgentID, error) {
	n, err := strconv.Atoi(digits)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("logic: bad agent index %q (agents are numbered from 1)", digits)
	}
	return system.AgentID(n - 1), nil
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if !unicode.IsDigit(c) {
			return false
		}
	}
	return true
}
