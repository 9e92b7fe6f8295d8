// Package system implements the Halpern–Tuttle model of computation
// (JACM 40(4) 1993, Sections 2–3): systems of runs over global states,
// points, labelled computation trees with transition probabilities, and the
// knowledge relation between points.
//
// A system is a set of runs; a run is a map from (natural-number) times to
// global states; a global state is a tuple of an environment state and one
// local state per agent. Factoring out nondeterminism with a type-1
// adversary turns the system into a collection of labelled computation
// trees, one per adversary, whose edge labels are transition probabilities;
// the probability of a finite run is the product of the labels along it.
//
// This package represents finite-horizon trees explicitly. Runs are maximal
// root-to-leaf paths. A point is a (run, time) pair; distinct points may
// share a global state (two runs through the same tree node), which is
// exactly the distinction the paper needs between facts about points, facts
// about runs and facts about global states.
package system

import (
	"fmt"
	"slices"
	"strconv"

	"kpa/internal/rat"
)

// AgentID identifies an agent p_i by index. Agents are numbered from 0.
type AgentID int

// LocalState is an agent's local state. Two points look alike to agent i
// exactly when i's local states at them are equal strings.
type LocalState string

// GlobalState is a tuple (s_e, s_1, …, s_n): the environment's state plus
// one local state per agent.
type GlobalState struct {
	Env    string
	Locals []LocalState
}

// NewGlobalState constructs a global state from an environment component and
// agent local states. The locals slice is copied.
func NewGlobalState(env string, locals ...LocalState) GlobalState {
	ls := make([]LocalState, len(locals))
	copy(ls, locals)
	return GlobalState{Env: env, Locals: ls}
}

// Local returns agent i's local state.
func (g GlobalState) Local(i AgentID) LocalState { return g.Locals[i] }

// NumAgents returns the number of agents in the global state.
func (g GlobalState) NumAgents() int { return len(g.Locals) }

// Key returns a canonical string encoding of the global state, usable as a
// map key. Distinct global states have distinct keys: each component is
// written as its byte length, a colon and its bytes, so no choice of bytes
// inside a component can shift a boundary.
func (g GlobalState) Key() string {
	n := len(g.Env)
	for _, l := range g.Locals {
		n += len(l)
	}
	b := make([]byte, 0, n+4*(len(g.Locals)+1))
	b = strconv.AppendInt(b, int64(len(g.Env)), 10)
	b = append(b, ':')
	b = append(b, g.Env...)
	for _, l := range g.Locals {
		b = strconv.AppendInt(b, int64(len(l)), 10)
		b = append(b, ':')
		b = append(b, l...)
	}
	return string(b)
}

// Equal reports whether g and h are the same global state.
func (g GlobalState) Equal(h GlobalState) bool {
	if g.Env != h.Env || len(g.Locals) != len(h.Locals) {
		return false
	}
	for i := range g.Locals {
		if g.Locals[i] != h.Locals[i] {
			return false
		}
	}
	return true
}

// String renders the global state as (env=E, p1=L1, …, pn=Ln).
func (g GlobalState) String() string {
	var buf [128]byte
	return string(g.AppendString(buf[:0]))
}

// AppendString appends the global state's String rendering to b and
// returns the extended buffer.
func (g GlobalState) AppendString(b []byte) []byte {
	b = append(b, "(env="...)
	b = append(b, g.Env...)
	for i, l := range g.Locals {
		b = append(b, ", p"...)
		b = strconv.AppendInt(b, int64(i+1), 10)
		b = append(b, '=')
		b = append(b, l...)
	}
	return append(b, ')')
}

// NodeID identifies a node within one tree.
type NodeID int

// Edge is a labelled transition of a computation tree: the system moves to
// Child with probability Prob.
type Edge struct {
	Child NodeID
	Prob  rat.Rat
}

// Node is a node of a computation tree. Each node corresponds to a global
// state reached after a particular finite history; the tree structure itself
// plays the role of the paper's technical assumption that the environment
// component encodes the adversary and the past history.
type Node struct {
	ID     NodeID
	State  GlobalState
	Time   int    // depth in the tree: the node is reached at this time
	Parent NodeID // -1 for the root
	Edges  []Edge // outgoing transitions; empty for leaves
}

// IsLeaf reports whether the node has no outgoing transitions.
func (n *Node) IsLeaf() bool { return len(n.Edges) == 0 }

// Tree is a labelled computation tree T_A for one type-1 adversary A: the
// purely probabilistic system that remains after the adversary has resolved
// every nondeterministic choice. It doubles as the probability space
// (R_A, X_A, μ_A) on its runs: the tree is finite, so every set of runs is
// measurable, and the probability of a run is the product of the transition
// probabilities along it.
type Tree struct {
	// Adversary names the type-1 adversary that generated this tree
	// (for example an input value, or a scheduler description).
	Adversary string

	nodes    []Node
	runs     [][]NodeID // maximal root-to-leaf paths, by run index
	runProbs []rat.Rat  // probability of each run
	depth    int        // maximum node time

	// weights[r]/weightDen is runProbs[r] over the runs' least common
	// denominator, set when that denominator fits in weightBits bits (nil
	// otherwise). The weights sum to weightDen, so no sum over a run subset
	// can overflow a uint64, and Prob and the probability kernels add
	// integers instead of big.Rats.
	weights   []uint64
	weightDen uint64
}

// weightBits bounds the common denominator of a tree's integer run
// weights. Two bits of headroom below 64 keep every subset sum in range
// with room to spare for callers that add a few such sums.
const weightBits = 62

// NumNodes returns the number of nodes in the tree.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// Node returns the node with the given ID.
func (t *Tree) Node(id NodeID) *Node { return &t.nodes[id] }

// Root returns the tree's root node.
func (t *Tree) Root() *Node { return &t.nodes[0] }

// NumRuns returns the number of (maximal) runs of the tree.
func (t *Tree) NumRuns() int { return len(t.runs) }

// Run returns run r as the sequence of nodes it passes through; Run(r)[k] is
// the node at time k. The returned slice must not be modified.
func (t *Tree) Run(r int) []NodeID { return t.runs[r] }

// RunLen returns the number of points on run r (its leaf time plus one).
func (t *Tree) RunLen(r int) int { return len(t.runs[r]) }

// RunProb returns μ_A(r), the product of transition probabilities along run r.
func (t *Tree) RunProb(r int) rat.Rat { return t.runProbs[r] }

// Depth returns the maximum time of any node in the tree.
func (t *Tree) Depth() int { return t.depth }

// NodeAt returns the node run r passes through at time k.
func (t *Tree) NodeAt(r, k int) *Node { return &t.nodes[t.runs[r][k]] }

// RunsThroughNode returns the set of runs passing through the given node.
func (t *Tree) RunsThroughNode(id NodeID) RunSet {
	rs := NewRunSet(len(t.runs))
	for r, path := range t.runs {
		n := t.Node(id)
		if n.Time < len(path) && path[n.Time] == id {
			rs.Add(r)
		}
	}
	return rs
}

// RunWeights returns the run probabilities as integers over a common
// denominator, μ_A(r) = weights[r]/den, and false when that denominator
// needs more than 62 bits. The weights sum to den, so any subset sum fits
// in a uint64. The slice is shared and must not be modified.
func (t *Tree) RunWeights() (weights []uint64, den uint64, ok bool) {
	return t.weights, t.weightDen, t.weights != nil
}

// Prob returns the probability of a set of runs: μ_A(R) = Σ_{r∈R} μ_A(r).
// Over a finite tree every run set is measurable. With integer run
// weights the sum is a uint64 addition per run and one Rat at the end.
func (t *Tree) Prob(rs RunSet) rat.Rat {
	if t.weights != nil {
		var w uint64
		rs.Iterate(func(r int) { w += t.weights[r] })
		return rat.New(int64(w), int64(t.weightDen))
	}
	acc := rat.Zero
	rs.Iterate(func(r int) {
		acc = acc.Add(t.runProbs[r])
	})
	return acc
}

// AllRuns returns the set of all runs of the tree.
func (t *Tree) AllRuns() RunSet {
	rs := NewRunSet(len(t.runs))
	for r := range t.runs {
		rs.Add(r)
	}
	return rs
}

// TreeBuilder constructs a Tree incrementally. Obtain one with NewTree, add
// nodes with Child, and finish with Build, which validates that the labels
// on every internal node's outgoing edges are positive and sum to one.
type TreeBuilder struct {
	tree *Tree
}

// NewTree starts building a computation tree for the named type-1 adversary,
// rooted at the given global state (time 0).
func NewTree(adversary string, root GlobalState) *TreeBuilder {
	t := &Tree{Adversary: adversary}
	t.nodes = append(t.nodes, Node{ID: 0, State: root, Time: 0, Parent: -1})
	return &TreeBuilder{tree: t}
}

// Grow makes room for n more Child calls without regrowing the node table,
// for callers that know the tree's size before they build it.
func (b *TreeBuilder) Grow(n int) {
	b.tree.nodes = slices.Grow(b.tree.nodes, n)
}

// Child adds a child of parent reached with the given transition probability
// and global state, returning the new node's ID.
func (b *TreeBuilder) Child(parent NodeID, prob rat.Rat, state GlobalState) NodeID {
	t := b.tree
	id := NodeID(len(t.nodes))
	p := &t.nodes[parent]
	childTime := p.Time + 1
	p.Edges = append(p.Edges, Edge{Child: id, Prob: prob})
	t.nodes = append(t.nodes, Node{ID: id, State: state, Time: childTime, Parent: parent})
	return id
}

// Build validates the tree and computes its runs and run probabilities.
// The builder must not be reused afterwards.
func (b *TreeBuilder) Build() (*Tree, error) {
	t := b.tree
	b.tree = nil
	if t == nil {
		return nil, fmt.Errorf("tree %q: builder already consumed", "")
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		if n.Time > t.depth {
			t.depth = n.Time
		}
		if len(n.Edges) == 0 {
			continue
		}
		var sum rat.Rat
		for k, e := range n.Edges {
			if e.Prob.Sign() <= 0 {
				return nil, fmt.Errorf("tree %q: node %d has non-positive transition probability %s",
					t.Adversary, n.ID, e.Prob)
			}
			if k == 0 {
				sum = e.Prob // a single edge, the common case, sums without allocating
			} else {
				sum = sum.Add(e.Prob)
			}
		}
		if !sum.IsOne() {
			return nil, fmt.Errorf("tree %q: node %d transition probabilities sum to %s, want 1",
				t.Adversary, n.ID, sum)
		}
	}
	t.enumerateRuns()
	return t, nil
}

// MustBuild is Build but panics on error; intended for tests and examples
// whose trees are constructed from literals.
func (b *TreeBuilder) MustBuild() *Tree {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Tree) enumerateRuns() {
	var path []NodeID
	var walk func(id NodeID, prob rat.Rat)
	walk = func(id NodeID, prob rat.Rat) {
		path = append(path, id)
		n := &t.nodes[id]
		if n.IsLeaf() {
			run := make([]NodeID, len(path))
			copy(run, path)
			t.runs = append(t.runs, run)
			t.runProbs = append(t.runProbs, prob)
		} else {
			for _, e := range n.Edges {
				// Probability-1 edges (deterministic chains) keep the
				// parent's Rat value instead of allocating a product.
				if e.Prob.IsOne() {
					walk(e.Child, prob)
				} else {
					walk(e.Child, prob.Mul(e.Prob))
				}
			}
		}
		path = path[:len(path)-1]
	}
	walk(0, rat.One)
	t.weights, t.weightDen, _ = rat.Scale64(t.runProbs, weightBits)
}
