package service

// Seams are narrow fault-injection points for resilience testing: each
// hook runs at one well-defined place in the serving path and may return
// an injected error, sleep, or panic (the evaluation seams run inside the
// panic-containment region, so an injected panic exercises the same
// recovery as a real one). The zero value is inert and production configs
// leave Seams nil; see internal/faultinject for a deterministic, seeded
// way to drive these hooks in chaos tests.
type Seams struct {
	// BeforeStoreGet runs at the top of every session lookup with the
	// requested system name. An error fails the lookup.
	BeforeStoreGet func(name string) error
	// BeforePoolGet runs just before an evaluation makes its evaluator —
	// for a check's evaluation and for a search job's φ — inside panic
	// containment.
	BeforePoolGet func() error
	// BeforeEval runs after the evaluator is made, just before it is
	// invoked with the canonical formula — for a check's evaluation and
	// for a search job's φ — inside the evaluation's own panic
	// containment, so panics here are contained like a real evaluator
	// panic would be.
	BeforeEval func(formula string) error
	// BeforeCheckpoint runs before every search-checkpoint file operation
	// with the operation ("write" or "load") and the job id. An error
	// fails that operation: a failed periodic write stops the search (the
	// last durable checkpoint stays authoritative), a failed load fails
	// the resume request.
	BeforeCheckpoint func(op, jobID string) error
	// BeforeSnapshotWrite runs before a session snapshot's temp file is
	// written, with the system's canon hash. An error (or panic — the
	// writer contains it) fails that write; the previous durable snapshot
	// stays authoritative.
	BeforeSnapshotWrite func(hash string) error
	// BeforeSnapshotRename runs between writing a snapshot's temp file
	// and renaming it into place — the crash window the tmp+rename
	// discipline defends. An error fails the write with the temp file
	// removed.
	BeforeSnapshotRename func(hash string) error
	// BeforeSnapshotLoad runs before a snapshot file is read during
	// restore, with the file path. An error fails that file's restore
	// (counted, logged, skipped) and the boot proceeds cold for it.
	BeforeSnapshotLoad func(path string) error
}

// storeGet consults the BeforeStoreGet seam.
func (s *Seams) storeGet(name string) error {
	if s == nil || s.BeforeStoreGet == nil {
		return nil
	}
	return s.BeforeStoreGet(name)
}

// poolGet consults the BeforePoolGet seam.
func (s *Seams) poolGet() error {
	if s == nil || s.BeforePoolGet == nil {
		return nil
	}
	return s.BeforePoolGet()
}

// eval consults the BeforeEval seam.
func (s *Seams) eval(formula string) error {
	if s == nil || s.BeforeEval == nil {
		return nil
	}
	return s.BeforeEval(formula)
}

// checkpoint consults the BeforeCheckpoint seam.
func (s *Seams) checkpoint(op, jobID string) error {
	if s == nil || s.BeforeCheckpoint == nil {
		return nil
	}
	return s.BeforeCheckpoint(op, jobID)
}

// snapshotWrite consults the BeforeSnapshotWrite seam.
func (s *Seams) snapshotWrite(hash string) error {
	if s == nil || s.BeforeSnapshotWrite == nil {
		return nil
	}
	return s.BeforeSnapshotWrite(hash)
}

// snapshotRename consults the BeforeSnapshotRename seam.
func (s *Seams) snapshotRename(hash string) error {
	if s == nil || s.BeforeSnapshotRename == nil {
		return nil
	}
	return s.BeforeSnapshotRename(hash)
}

// snapshotLoad consults the BeforeSnapshotLoad seam.
func (s *Seams) snapshotLoad(path string) error {
	if s == nil || s.BeforeSnapshotLoad == nil {
		return nil
	}
	return s.BeforeSnapshotLoad(path)
}
