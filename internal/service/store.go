package service

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"kpa/internal/canon"
	"kpa/internal/core"
	"kpa/internal/encode"
	"kpa/internal/logic"
	"kpa/internal/registry"
	"kpa/internal/system"
)

// session is a loaded system: the store's unit of sharing. The system,
// propositions and hash are immutable after construction; models holds the
// lazily-created model entry per canonical assignment name.
type session struct {
	name   string // the name the session was first loaded under
	desc   string
	source string // "registry" or "upload"
	hash   string // canon.Hash of the system
	sys    *system.System
	props  map[string]system.Fact

	// doc retains the original upload document for "upload" sessions (nil
	// for registry sessions): propositions are compiled closures and
	// cannot be serialized, so the document is what a snapshot carries to
	// rebuild the system after a restart.
	doc []byte

	mu     sync.RWMutex
	models map[string]*modelEntry // guarded by mu
}

// modelEntry is one (session, assignment) pair: the logic.Model that every
// evaluation over the pair reads, the sample assignment it was built from,
// and how many evaluators have been made over it. Each evaluation makes an
// evaluator of its own (Service.withEvaluator), so the model is the only
// evaluation state concurrent requests share.
type modelEntry struct {
	model   *logic.Model
	sample  core.SampleAssignment
	created atomic.Uint64
}

// newSession returns a session over sys, first loaded under name and
// keyed by hash. doc is the uploaded document, or nil for a registry
// system, which desc describes; an upload is described by its size.
func newSession(name, hash string, sys *system.System, props map[string]system.Fact, desc string, doc []byte) *session {
	source := "registry"
	if doc != nil {
		source = "upload"
		desc = fmt.Sprintf("uploaded system (%d trees, %d points)", len(sys.Trees()), sys.NumPoints())
	}
	return &session{
		name:   name,
		desc:   desc,
		source: source,
		hash:   hash,
		sys:    sys,
		props:  props,
		doc:    doc,
		models: make(map[string]*modelEntry),
	}
}

// model returns the session's model entry for the assignment name,
// resolving and creating it on first use. The canonical key is the resolved
// assignment's own Name(), so "opp:1" and the post assignment it equals for
// agent 1 still get distinct entries (their verdicts coincide but their
// sample keys differ), while repeated requests share one entry.
func (s *session) model(assignName string, eng *logic.Engine) (*modelEntry, error) {
	sa, err := registry.Assignment(s.sys, assignName)
	if err != nil {
		return nil, badRequest(err)
	}
	key := sa.Name()
	s.mu.RLock()
	m, ok := s.models[key]
	s.mu.RUnlock()
	if ok {
		return m, nil
	}
	// The session's one-time point index is built here, outside the lock
	// and sharded under the engine budget, instead of serially inside the
	// first NewEvaluator; the index is once-guarded, so only the first
	// entry per system pays.
	eng.Sweep(s.sys.NumPoints(), func(workers int) { s.sys.BuildIndex(workers) })
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.models[key]; ok {
		return m, nil
	}
	m = &modelEntry{model: logic.NewModel(s.sys, sa, s.props), sample: sa}
	s.models[key] = m
	return m, nil
}

// PoolStats reports one (system, assignment) model entry. Created counts
// the evaluators made over its model: one per evaluation.
type PoolStats struct {
	System     string `json:"system"`
	Assignment string `json:"assignment"`
	Created    uint64 `json:"created"`
}

func (s *session) poolStats() []PoolStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.models))
	for k := range s.models {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]PoolStats, 0, len(keys))
	for _, k := range keys {
		out = append(out, PoolStats{System: s.name, Assignment: k, Created: s.models[k].created.Load()})
	}
	return out
}

// store holds the service's loaded systems, keyed both by name (registry
// names and upload names) and by canonical content hash, so identical
// systems — a registry system re-uploaded as JSON, or the same document
// uploaded twice under different names — share one session and hence one
// set of models and one slice of the verdict cache.
type store struct {
	seams  *Seams
	mu     sync.RWMutex
	byName map[string]*session // guarded by mu
	byHash map[string]*session // guarded by mu
}

func newStore(seams *Seams) *store {
	return &store{
		seams:  seams,
		byName: make(map[string]*session),
		byHash: make(map[string]*session),
	}
}

// get returns the session for a name, loading it from the registry on first
// use. Unknown names fail with a KindNotFound error wrapping the registry's
// (which lists the valid names). Loaded names take only a read lock, so the
// cache-hit fast path never serializes behind uploads.
func (st *store) get(name string) (*session, error) {
	if err := st.seams.storeGet(name); err != nil {
		return nil, err
	}
	st.mu.RLock()
	s, ok := st.byName[name]
	st.mu.RUnlock()
	if ok {
		return s, nil
	}

	// Build outside the lock: registry systems can be large (async:12).
	entry, err := registry.Lookup(name)
	if err != nil {
		return nil, &Error{Kind: KindNotFound, Err: err}
	}
	s = newSession(name, canon.Hash(entry.Sys), entry.Sys, entry.Props, entry.Description, nil)
	return st.register(name, s), nil
}

// upload decodes a JSON document and registers it under the name. Uploading
// a document whose content hash matches a loaded system aliases the name to
// the existing session instead of keeping a second copy.
func (st *store) upload(name string, doc []byte) (*session, error) {
	if name == "" {
		return nil, &Error{Kind: KindBadRequest, Msg: "service: upload needs a name"}
	}
	if registry.Reserved(name) {
		return nil, &Error{Kind: KindBadRequest, Msg: fmt.Sprintf("service: name %q is reserved by the registry", name)}
	}
	sys, props, err := encode.Decode(doc)
	if err != nil {
		return nil, badRequest(err)
	}
	s := newSession(name, canon.Hash(sys), sys, props, "", append([]byte(nil), doc...))
	got := st.register(name, s)
	if got.hash != s.hash {
		// The name was already taken — possibly by a concurrent upload —
		// and its content differs. (Re-uploading identical content is
		// idempotent: register resolved it to the existing session.)
		return nil, &Error{Kind: KindConflict, Msg: fmt.Sprintf("service: name %q already names a different system", name)}
	}
	return got, nil
}

// register adds the session under the name, deduping by content hash:
// if an identical system is already loaded, the name becomes an alias for
// the existing session. Races on the same name are resolved first-wins.
func (st *store) register(name string, s *session) *session {
	st.mu.Lock()
	defer st.mu.Unlock()
	if prev, ok := st.byName[name]; ok {
		return prev
	}
	if prev, ok := st.byHash[s.hash]; ok {
		st.byName[name] = prev
		return prev
	}
	st.byName[name] = s
	st.byHash[s.hash] = s
	return s
}

// SystemInfo describes one loaded system for /v1/systems.
type SystemInfo struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Source      string   `json:"source"`
	Hash        string   `json:"hash"`
	Agents      int      `json:"agents"`
	Trees       int      `json:"trees"`
	Points      int      `json:"points"`
	Props       []string `json:"props"`
}

func (s *session) info(name string) SystemInfo {
	props := make([]string, 0, len(s.props))
	for n := range s.props {
		props = append(props, n)
	}
	sort.Strings(props)
	return SystemInfo{
		Name:        name,
		Description: s.desc,
		Source:      s.source,
		Hash:        s.hash,
		Agents:      s.sys.NumAgents(),
		Trees:       len(s.sys.Trees()),
		Points:      s.sys.NumPoints(),
		Props:       props,
	}
}

// list returns every loaded name, sorted, with aliased names pointing at
// their shared session.
func (st *store) list() []SystemInfo {
	st.mu.RLock()
	names := make([]string, 0, len(st.byName))
	for n := range st.byName {
		names = append(names, n)
	}
	sessions := make(map[string]*session, len(names))
	for _, n := range names {
		sessions[n] = st.byName[n]
	}
	st.mu.RUnlock()
	sort.Strings(names)
	out := make([]SystemInfo, 0, len(names))
	for _, n := range names {
		out = append(out, sessions[n].info(n))
	}
	return out
}

// namesOf returns every name bound to the session, sorted. The snapshot
// layer persists them so a restarted daemon answers the same aliases.
func (st *store) namesOf(s *session) []string {
	st.mu.RLock()
	var names []string
	for n, sess := range st.byName {
		if sess == s {
			names = append(names, n)
		}
	}
	st.mu.RUnlock()
	sort.Strings(names)
	return names
}

// sessions returns a snapshot of the distinct loaded sessions.
func (st *store) sessions() []*session {
	st.mu.RLock()
	defer st.mu.RUnlock()
	hashes := make([]string, 0, len(st.byHash))
	for h := range st.byHash {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	out := make([]*session, 0, len(hashes))
	for _, h := range hashes {
		out = append(out, st.byHash[h])
	}
	return out
}
