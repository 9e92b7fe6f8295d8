package encode

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"kpa/internal/rat"
	"kpa/internal/system"
)

// referenceDecode is the executable spec for Decode: the reflective
// decoder it replaced. It parses into a Document with json.Decoder and
// DisallowUnknownFields, then builds the trees depth-first through
// system.TreeBuilder. It differs from Decode only in accepting repeated
// keys, where encoding/json lets the last one win (and merges repeated
// objects).
func referenceDecode(data []byte) (*system.System, map[string]system.Fact, error) {
	var doc Document
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, nil, fmt.Errorf("encode: parse: %w", err)
	}
	if len(doc.Trees) == 0 {
		return nil, nil, fmt.Errorf("encode: no trees")
	}
	trees := make([]*system.Tree, 0, len(doc.Trees))
	for ti, td := range doc.Trees {
		if td.Adversary == "" {
			return nil, nil, fmt.Errorf("encode: tree %d has no adversary name", ti)
		}
		tb := system.NewTree(td.Adversary, mkState(td.Root))
		if err := addChildren(tb, 0, td.Root); err != nil {
			return nil, nil, fmt.Errorf("encode: tree %q: %w", td.Adversary, err)
		}
		t, err := tb.Build()
		if err != nil {
			return nil, nil, fmt.Errorf("encode: tree %q: %w", td.Adversary, err)
		}
		trees = append(trees, t)
	}
	sys, err := system.New(doc.Agents, trees...)
	if err != nil {
		return nil, nil, fmt.Errorf("encode: %w", err)
	}
	props := make(map[string]system.Fact, len(doc.Props))
	for name, pd := range doc.Props {
		fact, err := pd.Fact(name, doc.Agents)
		if err != nil {
			return nil, nil, err
		}
		props[name] = fact
	}
	return sys, props, nil
}

func mkState(nd NodeDoc) system.GlobalState {
	locals := make([]system.LocalState, len(nd.Locals))
	for i, l := range nd.Locals {
		locals[i] = system.LocalState(l)
	}
	return system.GlobalState{Env: nd.Env, Locals: locals}
}

func addChildren(tb *system.TreeBuilder, parent system.NodeID, nd NodeDoc) error {
	for ci, ed := range nd.Children {
		p, err := rat.Parse(ed.Prob)
		if err != nil {
			return fmt.Errorf("child %d: bad probability %q: %v", ci, ed.Prob, err)
		}
		id := tb.Child(parent, p, mkState(ed.Node))
		if err := addChildren(tb, id, ed.Node); err != nil {
			return err
		}
	}
	return nil
}

// duplicateKey walks the first JSON value of data with json.Decoder.Token
// and returns a key that repeats within one object, compared under
// bytes.EqualFold, or "" when no key repeats.
func duplicateKey(data []byte) string {
	dec := json.NewDecoder(bytes.NewReader(data))
	type frame struct {
		object bool
		keys   []string
		atKey  bool // the next token of an object is a key
	}
	var stack []*frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return ""
		}
		top := len(stack) - 1
		if top >= 0 && stack[top].object && stack[top].atKey {
			if k, ok := tok.(string); ok {
				for _, prev := range stack[top].keys {
					if bytes.EqualFold([]byte(prev), []byte(k)) {
						return k
					}
				}
				stack[top].keys = append(stack[top].keys, k)
				stack[top].atKey = false
				continue
			}
		}
		if top >= 0 && stack[top].object {
			stack[top].atKey = true
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, &frame{object: true, atKey: true})
		case json.Delim('['):
			stack = append(stack, &frame{})
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:top]
			if len(stack) == 0 {
				return ""
			}
			if t := stack[len(stack)-1]; t.object {
				t.atKey = true
			}
		}
	}
}

// sameDecoding reports how the systems and propositions of two decodings
// differ, or "" when they agree: the same canonical hash and agent count,
// the same proposition names, and each proposition true at the same
// points. Runs are matched by tree adversary and run index.
func sameDecoding(a *system.System, ap map[string]system.Fact, b *system.System, bp map[string]system.Fact, hash func(*system.System) string) string {
	if a.NumAgents() != b.NumAgents() {
		return fmt.Sprintf("agents %d vs %d", a.NumAgents(), b.NumAgents())
	}
	if ha, hb := hash(a), hash(b); ha != hb {
		return fmt.Sprintf("hash %s vs %s", ha[:12], hb[:12])
	}
	if len(ap) != len(bp) {
		return fmt.Sprintf("%d props vs %d", len(ap), len(bp))
	}
	var diffs []string
	for name, fa := range ap {
		fb, ok := bp[name]
		if !ok {
			return fmt.Sprintf("prop %q missing", name)
		}
		for _, ta := range a.Trees() {
			tb := b.TreeByAdversary(ta.Adversary)
			for r := 0; r < ta.NumRuns(); r++ {
				for k := 0; k < ta.RunLen(r); k++ {
					pa := system.Point{Tree: ta, Run: r, Time: k}
					pb := system.Point{Tree: tb, Run: r, Time: k}
					if fa.Holds(pa) != fb.Holds(pb) {
						diffs = append(diffs, fmt.Sprintf("%s at %s/%d/%d", name, ta.Adversary, r, k))
					}
				}
			}
		}
	}
	return strings.Join(diffs, ", ")
}
