package system

import (
	"fmt"
	"sync"
)

// System is a probabilistic system in the sense of Section 3: a collection
// of labelled computation trees, one per type-1 adversary, over a common set
// of agents. The trees are separate probability spaces; the nondeterministic
// choices distinguishing them have been factored out by the adversary.
type System struct {
	numAgents int
	numPoints int
	trees     []*Tree

	// The map-based indices are built lazily (localOnce, mapsOnce): a
	// system served through the dense engine never needs the map layer,
	// and building it eagerly would dominate construction.
	points     PointSet                     // all points, cached
	byLocal    []map[LocalState][]Point     // agent → local state → points
	byState    map[string][]Point           // global-state key → points
	treeByName map[string]*Tree             // adversary name → tree
	timeIndex  map[*Tree]map[int][]Point    // tree → time → points
	nodePoints map[*Tree]map[NodeID][]Point // tree → node → points on it

	localOnce sync.Once // guards byLocal
	mapsOnce  sync.Once // guards points, byState, timeIndex, nodePoints
	synchOnce sync.Once // guards synch
	synch     bool

	indexOnce sync.Once
	index     *Index // dense point index, built lazily by Index()
}

// New assembles a system from computation trees. It runs NewTrusted's
// checks and then the paper's technical assumption: no global state appears
// in two different trees or at two different nodes of one tree. That check
// is the only difference between the two constructors.
func New(numAgents int, trees ...*Tree) (*System, error) {
	s, err := NewTrusted(numAgents, trees...)
	if err != nil {
		return nil, err
	}
	if err := checkUniqueStates(trees); err != nil {
		return nil, err
	}
	return s, nil
}

// MustNew is New but panics on error; intended for tests and examples.
func MustNew(numAgents int, trees ...*Tree) *System {
	s, err := New(numAgents, trees...)
	if err != nil {
		panic(err)
	}
	return s
}

// NewTrusted assembles a system for callers whose construction already
// guarantees the paper's global-state uniqueness assumption — generators
// that mint one fresh environment component per node (internal/gen's scale
// systems). It validates that every global state has exactly numAgents
// local states and that adversary names are unique, and differs from New
// only by skipping the duplicate-state check. Both defer the map-based
// point indices until an accessor needs them: the dense engine path
// (Index, DenseSet, Partition) never touches them.
//
// Passing trees with duplicated global states breaks PointsWithState and
// the Future assignment; that is the caller's contract to keep.
func NewTrusted(numAgents int, trees ...*Tree) (*System, error) {
	if numAgents < 1 {
		return nil, fmt.Errorf("system: need at least one agent, got %d", numAgents)
	}
	if len(trees) == 0 {
		return nil, fmt.Errorf("system: need at least one computation tree")
	}
	s := &System{
		numAgents:  numAgents,
		trees:      trees,
		treeByName: make(map[string]*Tree, len(trees)),
	}
	for _, t := range trees {
		if _, dup := s.treeByName[t.Adversary]; dup {
			return nil, fmt.Errorf("system: duplicate adversary name %q", t.Adversary)
		}
		s.treeByName[t.Adversary] = t
		for i := 0; i < t.NumNodes(); i++ {
			n := t.Node(NodeID(i))
			if got := n.State.NumAgents(); got != numAgents {
				return nil, fmt.Errorf("system: tree %q node %d has %d local states, want %d",
					t.Adversary, n.ID, got, numAgents)
			}
		}
	}
	s.countPoints()
	return s, nil
}

// checkUniqueStates reports a global state that appears at two nodes. It
// keys nodes by their environment component, a string they already hold;
// only nodes that share an environment are told apart by their full state
// keys, so the check stays linear however many nodes share one.
func checkUniqueStates(trees []*Tree) error {
	type sighting struct{ tree, node int }
	n := 0
	for _, t := range trees {
		n += t.NumNodes()
	}
	byEnv := make(map[string]sighting, n)
	var byKey map[string]sighting
	for ti, t := range trees {
		for i := range t.nodes {
			st := &t.nodes[i].State
			first, shared := byEnv[st.Env]
			if !shared {
				byEnv[st.Env] = sighting{ti, i}
				continue
			}
			if byKey == nil {
				byKey = make(map[string]sighting)
			}
			byKey[trees[first.tree].nodes[first.node].State.Key()] = first
			key := st.Key()
			if prev, dup := byKey[key]; dup {
				return fmt.Errorf(
					"system: global state %s appears twice (trees %q and %q); "+
						"the environment component must encode the adversary and history",
					*st, trees[prev.tree].Adversary, t.Adversary)
			}
			byKey[key] = sighting{ti, i}
		}
	}
	return nil
}

func (s *System) countPoints() {
	total := 0
	for _, t := range s.trees {
		for r := 0; r < t.NumRuns(); r++ {
			total += t.RunLen(r)
		}
	}
	s.numPoints = total
}

// ensureLocal builds the agent-local-state index on first use. It is the
// only map index the probability machinery needs (KInTree backs the sample
// spaces), so it is split from ensureMaps: a scale system serving Pr
// queries builds byLocal but never pays for the global point set.
func (s *System) ensureLocal() {
	s.localOnce.Do(func() {
		s.byLocal = make([]map[LocalState][]Point, s.numAgents)
		for i := range s.byLocal {
			s.byLocal[i] = make(map[LocalState][]Point)
		}
		for _, t := range s.trees {
			for r := 0; r < t.NumRuns(); r++ {
				for k := 0; k < t.RunLen(r); k++ {
					p := Point{Tree: t, Run: r, Time: k}
					st := p.State()
					for i := 0; i < s.numAgents; i++ {
						s.byLocal[i][st.Local(AgentID(i))] = append(s.byLocal[i][st.Local(AgentID(i))], p)
					}
				}
			}
		}
	})
}

// ensureMaps builds the remaining map indices (global point set, by-state,
// by-time, by-node) on first use.
func (s *System) ensureMaps() {
	s.mapsOnce.Do(func() {
		s.points = make(PointSet, s.numPoints)
		s.byState = make(map[string][]Point)
		s.timeIndex = make(map[*Tree]map[int][]Point, len(s.trees))
		s.nodePoints = make(map[*Tree]map[NodeID][]Point, len(s.trees))
		for _, t := range s.trees {
			s.timeIndex[t] = make(map[int][]Point)
			s.nodePoints[t] = make(map[NodeID][]Point)
			for r := 0; r < t.NumRuns(); r++ {
				for k := 0; k < t.RunLen(r); k++ {
					p := Point{Tree: t, Run: r, Time: k}
					s.points.Add(p)
					st := p.State()
					s.byState[st.Key()] = append(s.byState[st.Key()], p)
					s.timeIndex[t][k] = append(s.timeIndex[t][k], p)
					s.nodePoints[t][t.runs[r][k]] = append(s.nodePoints[t][t.runs[r][k]], p)
				}
			}
		}
	})
}

// NumAgents returns the number of agents in the system.
func (s *System) NumAgents() int { return s.numAgents }

// NumPoints returns the number of points of the system. Unlike
// Points().Len() it reads a cached count and never materializes the
// map-based point set, so it is safe to call on million-point systems.
func (s *System) NumPoints() int { return s.numPoints }

// Agents returns the agent IDs 0..n−1.
func (s *System) Agents() []AgentID {
	out := make([]AgentID, s.numAgents)
	for i := range out {
		out[i] = AgentID(i)
	}
	return out
}

// Trees returns the system's computation trees. The slice must not be
// modified.
func (s *System) Trees() []*Tree { return s.trees }

// TreeByAdversary returns the tree for the named type-1 adversary, or nil.
func (s *System) TreeByAdversary(name string) *Tree { return s.treeByName[name] }

// Points returns the set of all points of the system. The returned set must
// not be modified; Clone it first.
func (s *System) Points() PointSet {
	s.ensureMaps()
	return s.points
}

// PointsOfTree returns all points lying in tree t.
func (s *System) PointsOfTree(t *Tree) PointSet {
	s.ensureMaps()
	u := make(PointSet)
	for p := range s.points {
		if p.Tree == t {
			u[p] = struct{}{}
		}
	}
	return u
}

// PointsAtTime returns the points of tree t at time k.
func (s *System) PointsAtTime(t *Tree, k int) []Point {
	s.ensureMaps()
	return s.timeIndex[t][k]
}

// PointsOnNode returns the points (run, time) lying on the given node of
// tree t — one per run through the node.
func (s *System) PointsOnNode(t *Tree, id NodeID) []Point {
	s.ensureMaps()
	return s.nodePoints[t][id]
}

// PointsWithState returns all points whose global state equals g.
func (s *System) PointsWithState(g GlobalState) []Point {
	s.ensureMaps()
	return s.byState[g.Key()]
}

// K returns K_i(c): the set of points agent i considers possible at c —
// all points of the system at which i has the same local state as at c.
// This is the possibility relation ∼_i of Section 2; it may span several
// computation trees.
func (s *System) K(i AgentID, c Point) PointSet {
	s.ensureLocal()
	pts := s.byLocal[i][c.Local(i)]
	u := make(PointSet, len(pts))
	for _, p := range pts {
		u[p] = struct{}{}
	}
	return u
}

// KInTree returns Tree_ic = {d ∈ T(c) : c ∼_i d}: the points of c's own
// computation tree that agent i considers possible at c (Section 6).
func (s *System) KInTree(i AgentID, c Point) PointSet {
	s.ensureLocal()
	u := make(PointSet)
	for _, p := range s.byLocal[i][c.Local(i)] {
		if p.Tree == c.Tree {
			u[p] = struct{}{}
		}
	}
	return u
}

// Knows reports whether agent i knows fact φ at c: whether φ holds at every
// point of K_i(c).
func (s *System) Knows(i AgentID, c Point, phi Fact) bool {
	for p := range s.K(i, c) {
		if !phi.Holds(p) {
			return false
		}
	}
	return true
}

// IsSynchronous reports whether the system is synchronous in the sense of
// [HV89]: whenever an agent has the same local state at (r,k) and (r′,k′),
// then k = k′. Equivalently, every agent can read the time off its local
// state. The result is computed once and cached; concurrent callers are
// safe.
func (s *System) IsSynchronous() bool {
	s.synchOnce.Do(func() {
		_, _, _, violated := s.SameLocalTimes()
		s.synch = !violated
	})
	return s.synch
}

// SameLocalTimes reports, for diagnostics, the first synchrony violation:
// an agent and two points it cannot distinguish at different times.
func (s *System) SameLocalTimes() (AgentID, Point, Point, bool) {
	s.ensureLocal()
	for i := 0; i < s.numAgents; i++ {
		for _, pts := range s.byLocal[i] {
			for j := 1; j < len(pts); j++ {
				if pts[j].Time != pts[0].Time {
					return AgentID(i), pts[0], pts[j], true
				}
			}
		}
	}
	return 0, Point{}, Point{}, false
}
