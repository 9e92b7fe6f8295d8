package service

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kpa/internal/canon"
	"kpa/internal/encode"
	"kpa/internal/registry"
	"kpa/internal/snapshot"
	"kpa/internal/system"
)

// snapshotter is the service's durability state: the background writer's
// lifecycle channels, the per-system dirty tracking, and the counters
// surfaced through /v1/stats as the "snapshot" block. One per Service,
// nil when Config.SnapshotDir is empty.
type snapshotter struct {
	dir   string
	every time.Duration

	stop chan struct{} // closed by Close to stop the writer loop
	done chan struct{} // closed by the writer loop on exit

	mu      sync.Mutex
	sigs    map[string]uint64 // guarded by mu; hash → CRC+length of last written file
	lastErr string            // guarded by mu; most recent write/restore failure

	writes           atomic.Uint64
	writeFailures    atomic.Uint64
	skips            atomic.Uint64
	writeNanos       atomic.Uint64
	restoredSessions atomic.Uint64
	restoredVerdicts atomic.Uint64
	restoredBytes    atomic.Uint64
	loadNanos        atomic.Uint64
	corruptFiles     atomic.Uint64
}

func newSnapshotter(dir string, every time.Duration) *snapshotter {
	return &snapshotter{
		dir:   dir,
		every: every,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		sigs:  make(map[string]uint64),
	}
}

func (sn *snapshotter) setErr(err error) {
	sn.mu.Lock()
	sn.lastErr = err.Error()
	sn.mu.Unlock()
}

// snapshotLoop is the background writer: one flush attempt per tick
// until Close stops it. A panic anywhere in a flush (an injected seam
// panic, a writer bug) is contained here — durability is best-effort
// and must never take the serving path down with it.
func (s *Service) snapshotLoop() {
	defer close(s.snap.done)
	t := time.NewTicker(s.snap.every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.snapshotTick()
		case <-s.snap.stop:
			return
		}
	}
}

func (s *Service) snapshotTick() {
	defer func() {
		if r := recover(); r != nil {
			s.snap.writeFailures.Add(1)
			s.snap.setErr(fmt.Errorf("snapshot writer panicked: %v", r))
		}
	}()
	// Errors are already counted and recorded per session; the tick
	// itself has nobody to report to.
	_, _ = s.SnapshotNow()
}

// SnapshotNow writes one snapshot file per loaded system whose durable
// state changed since the last write (tmp+rename, so a crash mid-write
// never damages the previous file). It returns how many files were
// written and the first failure; later sessions are still attempted.
// No-op without a snapshot directory.
func (s *Service) SnapshotNow() (int, error) {
	if s.snap == nil {
		return 0, nil
	}
	written := 0
	var firstErr error
	for _, sess := range s.store.sessions() {
		wrote, err := s.writeSessionSnapshot(sess)
		if err != nil {
			s.snap.writeFailures.Add(1)
			s.snap.setErr(err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if wrote {
			written++
		}
	}
	return written, firstErr
}

// writeSessionSnapshot exports one session's durable state — its
// identity, names and slice of the verdict cache — skips the write if the
// encoded bytes match the last file written for this hash (deterministic
// encoding makes the comparison exact), and otherwise writes
// temp-then-rename through the snapshot seams.
func (s *Service) writeSessionSnapshot(sess *session) (wrote bool, err error) {
	snap := &snapshot.Session{
		Hash:   sess.hash,
		Source: sess.source,
		Names:  s.store.namesOf(sess),
		Doc:    sess.doc,
	}
	if sess.source == "registry" {
		snap.Registry = sess.name
	}
	for _, cv := range s.cache.exportFor(sess.hash) {
		snap.Verdicts = append(snap.Verdicts, snapshot.Verdict{
			Assign:          cv.key.assign,
			Formula:         cv.key.formula,
			Valid:           cv.v.Valid,
			HoldsAt:         cv.v.HoldsAt,
			Points:          cv.v.Points,
			CounterTotal:    cv.v.CounterTotal,
			CounterExamples: cv.v.CounterExamples,
		})
	}

	data := snapshot.Encode(snap)
	// Dirty check: encoding is deterministic and the footer CRC covers
	// every byte before it, so (CRC, length) identifies the contents.
	sig := uint64(binary.LittleEndian.Uint32(data[len(data)-4:])) | uint64(len(data))<<32
	s.snap.mu.Lock()
	last, seen := s.snap.sigs[sess.hash]
	s.snap.mu.Unlock()
	if seen && last == sig {
		s.snap.skips.Add(1)
		return false, nil
	}

	start := time.Now()
	if err := s.cfg.Seams.snapshotWrite(sess.hash); err != nil {
		return false, fmt.Errorf("snapshot %s: %w", sess.hash[:12], err)
	}
	path := filepath.Join(s.snap.dir, snapshot.Filename(sess.hash))
	beforeRename := func() error { return s.cfg.Seams.snapshotRename(sess.hash) }
	if err := writeFileDurable(path, data, beforeRename); err != nil {
		return false, fmt.Errorf("snapshot %s: %w", sess.hash[:12], err)
	}
	s.snap.mu.Lock()
	s.snap.sigs[sess.hash] = sig
	s.snap.mu.Unlock()
	s.snap.writes.Add(1)
	s.snap.writeNanos.Add(uint64(time.Since(start).Nanoseconds()))
	return true, nil
}

// RestoreReport summarizes one RestoreSnapshots pass.
type RestoreReport struct {
	// Sessions is the number of sessions fully restored and published.
	Sessions int
	// Verdicts counts the cache entries adopted.
	Verdicts int
	// Bytes is the total size of the snapshot files read successfully.
	Bytes int64
	// Corrupt lists per-file failures ("file: error"), each of which fell
	// back to a cold start for that system rather than aborting the boot.
	Corrupt []string
}

// RestoreSnapshots scans the snapshot directory and rebuilds every
// session it can: the system (from its registry name or retained upload
// document, verified against the snapshot's canon hash), its dense index
// and every agent's information cells — built under the engine budget,
// the same work a cold load does — and the session's verdict-cache
// slice. A session is published to the store only after it is fully
// built, so cancelling the context mid-restore (SIGTERM during boot)
// never leaves a partial session visible — already-completed sessions
// stay, the in-progress one is dropped. Corrupt or stale files are
// counted, reported, and skipped: the daemon then simply loads those
// systems cold on demand.
func (s *Service) RestoreSnapshots(ctx context.Context) (RestoreReport, error) {
	var rep RestoreReport
	if s.snap == nil {
		return rep, nil
	}
	entries, err := os.ReadDir(s.snap.dir)
	if err != nil {
		s.snap.setErr(err)
		return rep, &Error{Kind: KindInternal, Err: err}
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == snapshot.Ext {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	for _, name := range files {
		if err := ctx.Err(); err != nil {
			return rep, ctxError(err)
		}
		path := filepath.Join(s.snap.dir, name)
		start := time.Now()
		n, v, err := s.restoreFile(ctx, path)
		if err != nil {
			if ctx.Err() != nil {
				// Cancelled mid-restore: not a corrupt file.
				return rep, ctxError(ctx.Err())
			}
			s.snap.corruptFiles.Add(1)
			s.snap.setErr(err)
			rep.Corrupt = append(rep.Corrupt, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		s.snap.loadNanos.Add(uint64(time.Since(start).Nanoseconds()))
		s.snap.restoredSessions.Add(1)
		s.snap.restoredVerdicts.Add(uint64(v))
		s.snap.restoredBytes.Add(uint64(n))
		rep.Sessions++
		rep.Verdicts += v
		rep.Bytes += int64(n)
	}
	return rep, nil
}

// restoreFile restores one snapshot file, returning the bytes read and
// the number of verdicts adopted. Any error means nothing of this file
// was published.
func (s *Service) restoreFile(ctx context.Context, path string) (bytes, verdicts int, err error) {
	if err := s.cfg.Seams.snapshotLoad(path); err != nil {
		return 0, 0, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	snap, err := snapshot.Decode(data)
	if err != nil {
		return 0, 0, err
	}

	// Rebuild the system from its durable identity and verify it hashes
	// to the snapshot's key before adopting any verdict.
	var (
		sys   *system.System
		props map[string]system.Fact
		desc  string
		doc   []byte
	)
	if snap.Source == "registry" {
		entry, err := registry.Lookup(snap.Registry)
		if err != nil {
			return 0, 0, fmt.Errorf("registry system %q: %w", snap.Registry, err)
		}
		sys, props, desc = entry.Sys, entry.Props, entry.Description
	} else {
		var derr error
		sys, props, derr = encode.Decode(snap.Doc)
		if derr != nil {
			return 0, 0, fmt.Errorf("uploaded document: %w", derr)
		}
		doc = snap.Doc
	}
	if h := canon.Hash(sys); h != snap.Hash {
		return 0, 0, fmt.Errorf("rebuilt system hashes to %s, snapshot is keyed %s", h[:12], snap.Hash[:12])
	}
	if len(snap.Names) == 0 {
		return 0, 0, fmt.Errorf("snapshot carries no names")
	}

	// Build what the first uncached check would otherwise pay for: the
	// dense index and every agent's cells, the same work a cold load does.
	s.engine.Sweep(sys.NumPoints(), func(workers int) {
		idx := sys.BuildIndex(workers)
		for i := 0; i < sys.NumAgents(); i++ {
			idx.Cells(system.AgentID(i), workers)
		}
	})

	sess := newSession(snap.Names[0], snap.Hash, sys, props, desc, doc)
	// Publish only now, fully built — and never after cancellation.
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	for _, name := range snap.Names {
		s.store.register(name, sess)
	}
	for _, v := range snap.Verdicts {
		key := cacheKey{sysHash: snap.Hash, assign: v.Assign, formula: v.Formula}
		s.cache.put(key, Verdict{
			System:          sess.name,
			Hash:            snap.Hash,
			Assignment:      v.Assign,
			Formula:         v.Formula,
			Valid:           v.Valid,
			HoldsAt:         v.HoldsAt,
			Points:          v.Points,
			CounterTotal:    v.CounterTotal,
			CounterExamples: v.CounterExamples,
		})
		verdicts++
	}
	return len(data), verdicts, nil
}

// SnapshotStats is the "snapshot" block of /v1/stats: the durability
// layer's write- and restore-side counters.
type SnapshotStats struct {
	// Enabled reports whether a snapshot directory is configured.
	Enabled bool `json:"enabled"`
	// Dir is the snapshot directory (empty when disabled).
	Dir string `json:"dir,omitempty"`
	// Writes counts snapshot files durably written; WriteFailures counts
	// failed attempts (the previous file stayed authoritative); Skips
	// counts flush ticks that found a session's durable state unchanged.
	Writes        uint64 `json:"writes"`
	WriteFailures uint64 `json:"writeFailures"`
	Skips         uint64 `json:"skips"`
	// WriteNanos is the summed wall-clock time of successful writes.
	WriteNanos uint64 `json:"writeNanos"`
	// RestoredSessions/Verdicts/Bytes describe what the boot restore
	// adopted; LoadNanos is the summed restore wall-clock.
	RestoredSessions uint64 `json:"restoredSessions"`
	RestoredVerdicts uint64 `json:"restoredVerdicts"`
	RestoredBytes    uint64 `json:"restoredBytes"`
	LoadNanos        uint64 `json:"loadNanos"`
	// CorruptFiles counts snapshot files rejected (typed decode errors,
	// hash mismatches) and skipped in favor of a cold load.
	CorruptFiles uint64 `json:"corruptFiles"`
	// LastError is the most recent write or restore failure, if any.
	LastError string `json:"lastError,omitempty"`
}

func (s *Service) snapshotStats() SnapshotStats {
	if s.snap == nil {
		return SnapshotStats{}
	}
	s.snap.mu.Lock()
	lastErr := s.snap.lastErr
	s.snap.mu.Unlock()
	return SnapshotStats{
		Enabled:          true,
		Dir:              s.snap.dir,
		Writes:           s.snap.writes.Load(),
		WriteFailures:    s.snap.writeFailures.Load(),
		Skips:            s.snap.skips.Load(),
		WriteNanos:       s.snap.writeNanos.Load(),
		RestoredSessions: s.snap.restoredSessions.Load(),
		RestoredVerdicts: s.snap.restoredVerdicts.Load(),
		RestoredBytes:    s.snap.restoredBytes.Load(),
		LoadNanos:        s.snap.loadNanos.Load(),
		CorruptFiles:     s.snap.corruptFiles.Load(),
		LastError:        lastErr,
	}
}
