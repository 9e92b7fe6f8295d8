package canon

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"sort"
	"strconv"

	"kpa/internal/system"
)

// Hash returns a canonical content hash of the system: two systems built
// independently from the same trees (agents, adversary names, node states
// and transition probabilities) hash identically, regardless of the order
// in which the trees were supplied. The hash is the hex-encoded SHA-256 of
// a deterministic serialization, suitable for keying caches and deduping
// uploaded systems.
//
// The serialization is "agents N\n", then per tree in adversary order
// "tree Q\n" and its nodes in preorder: "n Q", " Q" per local state,
// " cN\n" with N the edge count, and "e P\n" before each child's subtree,
// where Q is a Go-quoted string and P the edge probability's String.
func Hash(sys *system.System) string {
	w := hashWriter{h: sha256.New(), buf: make([]byte, 0, hashFlush+4096)}
	w.buf = append(w.buf, "agents "...)
	w.buf = strconv.AppendInt(w.buf, int64(sys.NumAgents()), 10)
	w.buf = append(w.buf, '\n')
	trees := append([]*system.Tree(nil), sys.Trees()...)
	sort.Slice(trees, func(i, j int) bool { return trees[i].Adversary < trees[j].Adversary })
	for _, t := range trees {
		w.buf = append(w.buf, "tree "...)
		w.buf = appendQuote(w.buf, t.Adversary)
		w.buf = append(w.buf, '\n')
		w.node(t, t.Root().ID)
	}
	w.flush()
	return hex.EncodeToString(w.h.Sum(nil))
}

// appendQuote appends s as strconv.AppendQuote does. AppendQuote writes
// a string of printable ASCII other than '"' and '\\' as itself between
// quotes, so such a string is copied; any other goes through AppendQuote.
func appendQuote(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(buf, s)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// hashFlush is the buffered stream length at which hashWriter hands its
// bytes to the hash.
const hashFlush = 32 << 10

// hashWriter appends the serialization into one reused buffer and flushes
// it to the hash in large writes.
type hashWriter struct {
	h   hash.Hash
	buf []byte
}

func (w *hashWriter) flush() {
	w.h.Write(w.buf)
	w.buf = w.buf[:0]
}

// node writes the subtree rooted at id in preorder. Child order is part of
// the tree's identity (it is the order runs are numbered in), so it is
// preserved rather than sorted.
func (w *hashWriter) node(t *system.Tree, id system.NodeID) {
	n := t.Node(id)
	w.buf = append(w.buf, "n "...)
	w.buf = appendQuote(w.buf, n.State.Env)
	for _, l := range n.State.Locals {
		w.buf = append(w.buf, ' ')
		w.buf = appendQuote(w.buf, string(l))
	}
	w.buf = append(w.buf, " c"...)
	w.buf = strconv.AppendInt(w.buf, int64(len(n.Edges)), 10)
	w.buf = append(w.buf, '\n')
	for _, e := range n.Edges {
		w.buf = append(w.buf, "e "...)
		// The bytes of e.Prob.String(), without allocating when the
		// probability fits in 64-bit parts.
		if num, den, ok := e.Prob.Frac64(); ok {
			w.buf = strconv.AppendUint(w.buf, num, 10)
			if den != 1 {
				w.buf = append(w.buf, '/')
				w.buf = strconv.AppendUint(w.buf, den, 10)
			}
		} else {
			w.buf = append(w.buf, e.Prob.String()...)
		}
		w.buf = append(w.buf, '\n')
		if len(w.buf) >= hashFlush {
			w.flush()
		}
		w.node(t, e.Child)
	}
}
