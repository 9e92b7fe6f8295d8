package system

import (
	"sort"
	"strconv"
)

// Point is a point (r, k): run r of one computation tree, at time k.
// Points are comparable values, so they can be used directly as map keys.
//
// Two distinct points can share a tree node (two runs passing through the
// same global state at the same time); they are still different points,
// because facts about the future — "the coin will eventually land heads" —
// can hold at one and fail at the other.
type Point struct {
	Tree *Tree
	Run  int
	Time int
}

// Node returns the tree node the point lies on.
func (p Point) Node() *Node { return p.Tree.NodeAt(p.Run, p.Time) }

// State returns the global state at the point.
func (p Point) State() GlobalState { return p.Node().State }

// Local returns agent i's local state at the point.
func (p Point) Local(i AgentID) LocalState { return p.State().Local(i) }

// Env returns the environment's state at the point.
func (p Point) Env() string { return p.State().Env }

// IsValid reports whether the point's time lies on its run.
func (p Point) IsValid() bool {
	return p.Tree != nil && p.Run >= 0 && p.Run < p.Tree.NumRuns() &&
		p.Time >= 0 && p.Time < p.Tree.RunLen(p.Run)
}

// Next returns the point one step later on the same run, and whether it
// exists (false at the final point of a run).
func (p Point) Next() (Point, bool) {
	if p.Time+1 >= p.Tree.RunLen(p.Run) {
		return Point{}, false
	}
	return Point{Tree: p.Tree, Run: p.Run, Time: p.Time + 1}, true
}

// SameGlobalState reports whether p and q lie on the same tree node, i.e.
// have the same global state under the paper's technical assumption that
// the environment encodes the history.
func (p Point) SameGlobalState(q Point) bool {
	return p.Tree == q.Tree && p.Time == q.Time &&
		p.Tree.runs[p.Run][p.Time] == q.Tree.runs[q.Run][q.Time]
}

// String renders the point as (adversary/rRUN, TIME).
func (p Point) String() string {
	var buf [64]byte
	return string(p.AppendString(buf[:0]))
}

// AppendString appends the point's String rendering to b and returns the
// extended buffer.
func (p Point) AppendString(b []byte) []byte {
	b = append(b, '(')
	b = append(b, p.Tree.Adversary...)
	b = append(b, "/r"...)
	b = strconv.AppendInt(b, int64(p.Run), 10)
	b = append(b, ", "...)
	b = strconv.AppendInt(b, int64(p.Time), 10)
	return append(b, ')')
}

// PointSet is a finite set of points, possibly spanning several trees.
type PointSet map[Point]struct{}

// NewPointSet returns a set containing the given points.
func NewPointSet(points ...Point) PointSet {
	s := make(PointSet, len(points))
	for _, p := range points {
		s.Add(p)
	}
	return s
}

// Add inserts p into the set.
func (s PointSet) Add(p Point) { s[p] = struct{}{} }

// Remove deletes p from the set.
func (s PointSet) Remove(p Point) { delete(s, p) }

// Contains reports whether p is in the set.
func (s PointSet) Contains(p Point) bool {
	_, ok := s[p]
	return ok
}

// Len returns the number of points in the set.
func (s PointSet) Len() int { return len(s) }

// IsEmpty reports whether the set is empty.
func (s PointSet) IsEmpty() bool { return len(s) == 0 }

// Clone returns an independent copy of the set.
func (s PointSet) Clone() PointSet {
	c := make(PointSet, len(s))
	for p := range s {
		c[p] = struct{}{}
	}
	return c
}

// Union returns s ∪ t.
func (s PointSet) Union(t PointSet) PointSet {
	u := s.Clone()
	for p := range t {
		u[p] = struct{}{}
	}
	return u
}

// Intersect returns s ∩ t.
func (s PointSet) Intersect(t PointSet) PointSet {
	small, large := s, t
	if len(t) < len(s) {
		small, large = t, s
	}
	u := make(PointSet)
	for p := range small {
		if large.Contains(p) {
			u[p] = struct{}{}
		}
	}
	return u
}

// Minus returns s \ t.
func (s PointSet) Minus(t PointSet) PointSet {
	u := make(PointSet)
	for p := range s {
		if !t.Contains(p) {
			u[p] = struct{}{}
		}
	}
	return u
}

// SubsetOf reports whether every point of s is in t.
func (s PointSet) SubsetOf(t PointSet) bool {
	for p := range s {
		if !t.Contains(p) {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same points.
func (s PointSet) Equal(t PointSet) bool {
	return len(s) == len(t) && s.SubsetOf(t)
}

// Filter returns the subset of points satisfying keep.
func (s PointSet) Filter(keep func(Point) bool) PointSet {
	u := make(PointSet)
	for p := range s {
		if keep(p) {
			u[p] = struct{}{}
		}
	}
	return u
}

// SingleTree returns the tree containing all points of s, or nil if s is
// empty or spans more than one tree. This is the check behind REQ1.
func (s PointSet) SingleTree() *Tree {
	var t *Tree
	for p := range s {
		if t == nil {
			t = p.Tree
		} else if t != p.Tree {
			return nil
		}
	}
	return t
}

// RunsThrough returns R(S): the set of runs of tree t passing through s.
// Points of s lying in other trees are ignored.
func (s PointSet) RunsThrough(t *Tree) RunSet {
	rs := NewRunSet(t.NumRuns())
	for p := range s {
		if p.Tree == t {
			rs.Add(p.Run)
		}
	}
	return rs
}

// Sorted returns the points in a deterministic order (tree adversary name,
// then run, then time), for stable iteration in tests and output.
func (s PointSet) Sorted() []Point {
	out := make([]Point, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Tree != b.Tree {
			return a.Tree.Adversary < b.Tree.Adversary
		}
		if a.Run != b.Run {
			return a.Run < b.Run
		}
		return a.Time < b.Time
	})
	return out
}

// IsStateGenerated reports whether s contains, for each of its points, every
// point of the universe with the same global state. The universe is supplied
// as the set of all points of the relevant trees.
func (s PointSet) IsStateGenerated(universe PointSet) bool {
	for p := range s {
		for q := range universe {
			if p.SameGlobalState(q) && !s.Contains(q) {
				return false
			}
		}
	}
	return true
}

// Proj implements the paper's projection Proj(R′, S) = {(r,k) ∈ S : r ∈ R′}:
// the points of s that lie on a run of rs within tree t.
func Proj(t *Tree, rs RunSet, s PointSet) PointSet {
	u := make(PointSet)
	for p := range s {
		if p.Tree == t && rs.Contains(p.Run) {
			u[p] = struct{}{}
		}
	}
	return u
}
