package logic

import (
	"sync"

	"kpa/internal/rat"
	"kpa/internal/system"
)

// Hash-consing of formula nodes. Evaluator memos are keyed by node
// identity, so two structurally-equal formulas built separately — two
// parses of the same query text checked on one evaluator, or the fresh
// Not/True nodes the Always/Eventually desugarings used to allocate — would
// miss each other's memo entries. The constructors below intern every node
// in a package-level table: structurally equal formulas are pointer-equal,
// and the memo hit follows.
//
// Children are interned before their parents, so a shallow key (operator
// tag, child pointers, scalar attributes) suffices for deep structural
// equality. Rationals are keyed by rat.Key (canonical a/b form) and agent
// groups by their normalized rendering. The table is guarded by a mutex —
// construction is cheap next to evaluation, and concurrent requests parse
// concurrently.
//
// A server that checks ever-new formulas would grow the table without
// limit, so it holds at most internCap nodes: interning a new node into a
// full table first starts a new, empty table. Nodes of the old table stay
// valid. Only memo lookups compare formulas by pointer, so a formula
// rebuilt after a reset costs one memo miss, never a wrong answer; within
// one table's lifetime structurally equal formulas stay pointer-equal. A
// new table's keys may name children from the old one, which keeps those
// children alive only as long as the new table keeps their parents.

// internKey identifies a formula node up to structural equality, given that
// its children are already interned.
type internKey struct {
	kind        byte
	left, right Formula
	agent       system.AgentID
	q           string // rat.Key of the probability bound, if any
	group       string // normalized group rendering, if any
	name        string // proposition name, if any
}

// internCap bounds the intern table. At about 300 bytes per node (the
// node, its key and its map slot, measured on parsed K and Pr formulas), a
// full table holds about 20 MB.
const internCap = 1 << 16

var (
	internMu    sync.Mutex
	internTable = make(map[internKey]Formula)
)

// intern returns the canonical node for the key, building it with mk on
// first sight, and starts a new table when the current one is full.
func intern(k internKey, mk func() Formula) Formula {
	internMu.Lock()
	defer internMu.Unlock()
	if f, ok := internTable[k]; ok {
		return f
	}
	if len(internTable) >= internCap {
		internTable = make(map[internKey]Formula)
	}
	f := mk()
	internTable[k] = f
	return f
}

// internSize reports the number of interned nodes; tests use it to pin the
// no-duplicates property.
func internSize() int {
	internMu.Lock()
	defer internMu.Unlock()
	return len(internTable)
}

func internNot(sub Formula) Formula {
	return intern(internKey{kind: '!', left: sub}, func() Formula { return &NotFormula{Sub: sub} })
}

func internAnd(l, r Formula) Formula {
	return intern(internKey{kind: '&', left: l, right: r}, func() Formula { return &AndFormula{Left: l, Right: r} })
}

func internOr(l, r Formula) Formula {
	return intern(internKey{kind: '|', left: l, right: r}, func() Formula { return &OrFormula{Left: l, Right: r} })
}

func internImplies(l, r Formula) Formula {
	return intern(internKey{kind: '>', left: l, right: r}, func() Formula { return &ImpliesFormula{Left: l, Right: r} })
}

func internProp(name string) Formula {
	return intern(internKey{kind: 'p', name: name}, func() Formula { return &PropFormula{Name: name} })
}

func internNext(sub Formula) Formula {
	return intern(internKey{kind: 'X', left: sub}, func() Formula { return &NextFormula{Sub: sub} })
}

func internUntil(l, r Formula) Formula {
	return intern(internKey{kind: 'U', left: l, right: r}, func() Formula { return &UntilFormula{Left: l, Right: r} })
}

func internEventually(sub Formula) Formula {
	return intern(internKey{kind: 'F', left: sub}, func() Formula { return &EventuallyFormula{Sub: sub} })
}

func internAlways(sub Formula) Formula {
	return intern(internKey{kind: 'G', left: sub}, func() Formula { return &AlwaysFormula{Sub: sub} })
}

func internK(i system.AgentID, sub Formula) Formula {
	return intern(internKey{kind: 'K', agent: i, left: sub}, func() Formula { return &KnowFormula{Agent: i, Sub: sub} })
}

func internPrGeq(i system.AgentID, sub Formula, alpha rat.Rat) Formula {
	return intern(internKey{kind: 'g', agent: i, q: alpha.Key(), left: sub},
		func() Formula { return &PrGeqFormula{Agent: i, Alpha: alpha, Sub: sub} })
}

func internPrLeq(i system.AgentID, sub Formula, beta rat.Rat) Formula {
	return intern(internKey{kind: 'l', agent: i, q: beta.Key(), left: sub},
		func() Formula { return &PrLeqFormula{Agent: i, Beta: beta, Sub: sub} })
}

func internEveryone(group []system.AgentID, sub Formula) Formula {
	return intern(internKey{kind: 'E', group: groupString(group), left: sub},
		func() Formula { return &EveryoneFormula{Group: group, Sub: sub} })
}

func internCommon(group []system.AgentID, sub Formula) Formula {
	return intern(internKey{kind: 'C', group: groupString(group), left: sub},
		func() Formula { return &CommonFormula{Group: group, Sub: sub} })
}

func internEveryonePr(group []system.AgentID, sub Formula, alpha rat.Rat) Formula {
	return intern(internKey{kind: 'e', group: groupString(group), q: alpha.Key(), left: sub},
		func() Formula { return &EveryonePrFormula{Group: group, Alpha: alpha, Sub: sub} })
}

func internCommonPr(group []system.AgentID, sub Formula, alpha rat.Rat) Formula {
	return intern(internKey{kind: 'c', group: groupString(group), q: alpha.Key(), left: sub},
		func() Formula { return &CommonPrFormula{Group: group, Alpha: alpha, Sub: sub} })
}
