// Package encode serializes systems to and from a JSON description format,
// so the CLI tools can model-check user-supplied systems and systems can be
// archived alongside experiment results.
//
// A document describes the agents, one computation tree per type-1
// adversary (as a nested node structure whose edges carry exact rational
// probabilities written as strings, e.g. "1/2"), and optionally a table of
// named primitive propositions defined by simple matchers on the
// environment or on an agent's local state.
//
//	{
//	  "agents": 2,
//	  "trees": [
//	    {
//	      "adversary": "toss",
//	      "root": {
//	        "env": "start", "locals": ["p1:t0", "p2:t0"],
//	        "children": [
//	          {"prob": "1/2", "node": {"env": "h", "locals": ["p1:h", "p2:t1"]}},
//	          {"prob": "1/2", "node": {"env": "t", "locals": ["p1:t", "p2:t1"]}}
//	        ]
//	      }
//	    }
//	  ],
//	  "props": {
//	    "heads": {"envEquals": "h"}
//	  }
//	}
//
// Decode scans the document once, in place, building each tree through
// system.TreeBuilder. It accepts exactly what json.Decoder.Decode with
// DisallowUnknownFields accepts into a Document, except that a repeated key
// is an error:
//
//   - Keys may come in any order within an object.
//   - A key selects its field by exact name, else by bytes.EqualFold, as in
//     encoding/json. A key naming no field fails with unknown field "k",
//     and a key selecting a field an earlier key of the same object
//     selected fails with duplicate key "k".
//   - String escapes, invalid UTF-8 (replaced by U+FFFD) and control
//     bytes behave as in encoding/json; agents is a JSON number that fits
//     an int; null leaves a field at its zero value.
//   - More than 10,000 nested arrays and objects is an error, as in
//     encoding/json. Each tree level nests three deeper (children array,
//     edge object, node object), so a leaf can sit at most 3,331 levels
//     below its root.
//   - Bytes after the document's closing brace are ignored.
//   - props is decoded by encoding/json itself (a PropDoc per name).
//
// The decoded system must then satisfy system.New: every node has one
// local state per agent, adversary names are distinct, every internal
// node's edge probabilities are positive and sum to 1, and no global state
// appears twice.
package encode

import (
	"encoding/json"
	"fmt"
	"strings"

	"kpa/internal/system"
)

// Document is the top-level JSON structure.
type Document struct {
	// Agents is the number of agents.
	Agents int `json:"agents"`
	// Trees holds one computation tree per type-1 adversary.
	Trees []TreeDoc `json:"trees"`
	// Props optionally defines named primitive propositions.
	Props map[string]PropDoc `json:"props,omitempty"`
}

// TreeDoc describes one labelled computation tree.
type TreeDoc struct {
	// Adversary names the tree's type-1 adversary.
	Adversary string `json:"adversary"`
	// Root is the tree's root node (time 0).
	Root NodeDoc `json:"root"`
}

// NodeDoc describes a node and, recursively, its subtree.
type NodeDoc struct {
	// Env is the environment component of the node's global state.
	Env string `json:"env"`
	// Locals holds one local state per agent.
	Locals []string `json:"locals"`
	// Children lists the labelled outgoing transitions (empty for leaves).
	Children []EdgeDoc `json:"children,omitempty"`
}

// EdgeDoc is a labelled transition.
type EdgeDoc struct {
	// Prob is the transition probability as an exact rational string
	// ("1/2", "0.25", "1").
	Prob string `json:"prob"`
	// Node is the child subtree.
	Node NodeDoc `json:"node"`
}

// PropDoc defines a primitive proposition by a matcher. Exactly one matcher
// field must be set; Negate inverts the result.
type PropDoc struct {
	// EnvEquals matches points whose environment equals the value.
	EnvEquals string `json:"envEquals,omitempty"`
	// EnvContains matches points whose environment contains the value.
	EnvContains string `json:"envContains,omitempty"`
	// EnvHasSuffix matches points whose environment ends with the value.
	EnvHasSuffix string `json:"envHasSuffix,omitempty"`
	// Local matches on an agent's local state.
	Local *LocalMatcher `json:"local,omitempty"`
	// Negate inverts the matcher.
	Negate bool `json:"negate,omitempty"`
}

// LocalMatcher matches an agent's local state.
type LocalMatcher struct {
	// Agent is 1-based, matching the formula syntax (K1 is agent 1).
	Agent int `json:"agent"`
	// Equals matches exact local states (checked first if set).
	Equals string `json:"equals,omitempty"`
	// Contains matches local states containing the value.
	Contains string `json:"contains,omitempty"`
}

// Fact compiles a proposition definition into a Fact.
func (pd PropDoc) Fact(name string, agents int) (system.Fact, error) {
	matchers := 0
	var fn func(system.Point) bool
	if pd.EnvEquals != "" {
		matchers++
		v := pd.EnvEquals
		fn = func(p system.Point) bool { return p.Env() == v }
	}
	if pd.EnvContains != "" {
		matchers++
		v := pd.EnvContains
		fn = func(p system.Point) bool { return strings.Contains(p.Env(), v) }
	}
	if pd.EnvHasSuffix != "" {
		matchers++
		v := pd.EnvHasSuffix
		fn = func(p system.Point) bool { return strings.HasSuffix(p.Env(), v) }
	}
	if pd.Local != nil {
		matchers++
		lm := pd.Local
		if lm.Agent < 1 || lm.Agent > agents {
			return nil, fmt.Errorf("encode: prop %q: agent %d out of range 1..%d",
				name, lm.Agent, agents)
		}
		id := system.AgentID(lm.Agent - 1)
		switch {
		case lm.Equals != "":
			v := lm.Equals
			fn = func(p system.Point) bool { return string(p.Local(id)) == v }
		case lm.Contains != "":
			v := lm.Contains
			fn = func(p system.Point) bool { return strings.Contains(string(p.Local(id)), v) }
		default:
			return nil, fmt.Errorf("encode: prop %q: local matcher needs equals or contains", name)
		}
	}
	if matchers != 1 {
		return nil, fmt.Errorf("encode: prop %q must set exactly one matcher, has %d",
			name, matchers)
	}
	if pd.Negate {
		inner := fn
		fn = func(p system.Point) bool { return !inner(p) }
	}
	return system.NewFact(name, fn), nil
}

// Encode serializes a system back into a document (without propositions,
// which are not recoverable from the semantic Fact values).
func Encode(sys *system.System) Document {
	doc := Document{Agents: sys.NumAgents()}
	for _, t := range sys.Trees() {
		doc.Trees = append(doc.Trees, TreeDoc{
			Adversary: t.Adversary,
			Root:      encodeNode(t, t.Root().ID),
		})
	}
	return doc
}

func encodeNode(t *system.Tree, id system.NodeID) NodeDoc {
	n := t.Node(id)
	nd := NodeDoc{Env: n.State.Env, Locals: make([]string, len(n.State.Locals))}
	for i, l := range n.State.Locals {
		nd.Locals[i] = string(l)
	}
	for _, e := range n.Edges {
		nd.Children = append(nd.Children, EdgeDoc{
			Prob: e.Prob.String(),
			Node: encodeNode(t, e.Child),
		})
	}
	return nd
}

// Marshal renders a document as indented JSON.
func Marshal(doc Document) ([]byte, error) {
	return json.MarshalIndent(doc, "", "  ")
}
