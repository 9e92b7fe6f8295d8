package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"kpa/internal/betting"
	"kpa/internal/core"
	"kpa/internal/logic"
	"kpa/internal/rat"
	"kpa/internal/search"
	"kpa/internal/system"
)

// SearchPoint addresses one point of a system: a run of a named tree at a
// time, mirroring the paper's (r, k) notation.
type SearchPoint struct {
	Tree string `json:"tree"`
	Run  int    `json:"run"`
	Time int    `json:"time"`
}

// SearchRequest creates a strategy-search job: synthesize the opponent
// strategy optimizing the bottleneck expected winnings of the rule
// Bet_j(φ, α) over the points p_i considers possible at c. Agent numbers
// are 1-based, matching the formula syntax (K1, Pr2) and opp:J.
type SearchRequest struct {
	// System is a registry or upload name; Assign the assignment name
	// (default post).
	System string `json:"system"`
	Assign string `json:"assign,omitempty"`
	// Agent is p_i (holds the rule), Opponent is p_j (places offers).
	Agent    int `json:"agent"`
	Opponent int `json:"opponent"`
	// At is the point c the search is anchored at.
	At SearchPoint `json:"at"`
	// Formula is the bet's fact φ in the logic's ASCII syntax.
	Formula string `json:"formula"`
	// Alpha is the rule's threshold parameter α ∈ (0,1], as a rational.
	Alpha string `json:"alpha"`
	// Payoffs are the candidate offer payoffs (rationals); default is the
	// single threshold payoff 1/α, the paper's worst accepted offer.
	Payoffs []string `json:"payoffs,omitempty"`
	// Mode is "adversary" (default) or "ally"; see search.Mode.
	Mode string `json:"mode,omitempty"`
	// Workers overrides the configured per-job worker count (capped by it).
	Workers int `json:"workers,omitempty"`
	// CheckpointEvery overrides the configured checkpoint cadence (nodes).
	CheckpointEvery uint64 `json:"checkpointEvery,omitempty"`
	// ResumeFrom resumes from the named job's last checkpoint (in-memory
	// snapshot of a canceled job, or its checkpoint file). The resumed
	// job's own request defines the problem; only Workers and
	// CheckpointEvery from this request still apply. The new job takes
	// the named job's checkpoint file over (see StartSearch).
	ResumeFrom string `json:"resumeFrom,omitempty"`
}

// SearchOffer is one row of a synthesized strategy: the offer at one of
// p_j's local states.
type SearchOffer struct {
	Local  string `json:"local"`
	Bet    bool   `json:"bet"`
	Payoff string `json:"payoff,omitempty"`
}

// SearchResult is a finished search's answer.
type SearchResult struct {
	// Value is the exact optimum (rational): min over strategies of the
	// max expectation (adversary) or max of the min (ally).
	Value string `json:"value"`
	// Optimal is true when the search space was exhausted; a result is
	// only published for exhausted searches, so it is always true here.
	Optimal bool `json:"optimal"`
	// Strategy is the witnessing strategy, sorted by local state.
	Strategy []SearchOffer `json:"strategy"`
}

// Search job states.
const (
	SearchRunning  = "running"
	SearchDone     = "done"
	SearchCanceled = "canceled"
	SearchFailed   = "failed"
)

// SearchStatus reports one job.
type SearchStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`

	System     string `json:"system"`
	Assignment string `json:"assignment"`
	Mode       string `json:"mode"`

	// Depth, Offers, Spaces and TotalStrategies describe the compiled
	// lattice (zero until compilation finishes): tree height, branching,
	// objective coordinates, and |offers|^depth (TotalExact is false when
	// that count saturated).
	Depth           int    `json:"depth"`
	Offers          int    `json:"offers"`
	Spaces          int    `json:"spaces"`
	TotalStrategies uint64 `json:"totalStrategies"`
	TotalExact      bool   `json:"totalExact"`

	Progress search.Progress `json:"progress"`

	// Result is set only for done jobs: canceled and failed jobs never
	// publish their provisional incumbent.
	Result      *SearchResult `json:"result,omitempty"`
	Error       string        `json:"error,omitempty"`
	ResumedFrom string        `json:"resumedFrom,omitempty"`
}

// SearchStats aggregates the search subsystem for /v1/stats.
type SearchStats struct {
	JobsRunning  int `json:"jobsRunning"`
	JobsDone     int `json:"jobsDone"`
	JobsCanceled int `json:"jobsCanceled"`
	JobsFailed   int `json:"jobsFailed"`
	// NodesExpanded/NodesPruned/LeafEvals sum over retained jobs, live
	// ones included.
	NodesExpanded uint64 `json:"nodesExpanded"`
	NodesPruned   uint64 `json:"nodesPruned"`
	LeafEvals     uint64 `json:"leafEvals"`
	// CheckpointsWritten counts checkpoint files durably written.
	CheckpointsWritten uint64 `json:"checkpointsWritten"`
}

// maxRetainedSearches bounds finished jobs kept for status queries;
// resuming an evicted job still works through its checkpoint file.
const maxRetainedSearches = 64

// searchJob is one job's lifetime state.
type searchJob struct {
	id  string
	seq int
	req SearchRequest
	// ctx is canceled by CancelSearch and Close; φ's evaluation and the
	// engine's cancel hook read it.
	ctx    context.Context
	cancel context.CancelFunc
	// done is closed once the job has returned its evaluation slot and
	// search-job token and published its terminal state.
	done chan struct{}

	mu      sync.Mutex
	state   string          // guarded by mu
	prob    *search.Problem // guarded by mu
	eng     *search.Engine  // guarded by mu
	result  *SearchResult   // guarded by mu
	err     error           // guarded by mu
	resumed string          // guarded by mu
	// source is the checkpoint file of the job this one was resumed from
	// by hand, until this job retires it (see retireSource).
	source string // guarded by mu
}

// status snapshots the job.
func (j *searchJob) status() SearchStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := SearchStatus{
		ID:          j.id,
		State:       j.state,
		System:      j.req.System,
		Assignment:  orPost(j.req.Assign),
		Mode:        j.req.Mode,
		Result:      j.result,
		ResumedFrom: j.resumed,
	}
	if st.Mode == "" {
		st.Mode = search.ModeAdversary.String()
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.prob != nil {
		st.Depth = j.prob.Depth()
		st.Offers = j.prob.NumOffers()
		st.Spaces = j.prob.NumSpaces()
		st.TotalStrategies, st.TotalExact = j.prob.TotalStrategies()
	}
	if j.eng != nil {
		st.Progress = j.eng.Progress()
	}
	return st
}

// searchSpec is a validated, compiled-enough request, built synchronously
// in StartSearch so client mistakes fail the POST instead of the job.
type searchSpec struct {
	model     *modelEntry
	sess      *session
	phi       logic.Formula
	canonical string
	i, j      system.AgentID
	c         system.Point
	rule      betting.Rule
	payoffs   []rat.Rat
	mode      search.Mode
	workers   int
	every     uint64
}

// StartSearch validates the request, admits it, registers the job, and
// runs the search on a detached goroutine under the job's own context.
// Admission takes one of MaxSearchJobs tokens without waiting and one
// evaluation slot, queued like Check's; either shortfall, like a start
// after Close, is a KindOverloaded error with a retry hint. The job keeps
// that one slot whatever its worker count, so running searches leave the
// other slots to checks. A job resumed by ResumeFrom runs under a fresh ID
// and takes the resumed job's checkpoint file over: it removes that file
// once it has a durable checkpoint of its own or completes, so a crash
// before then still leaves the file to resume.
func (s *Service) StartSearch(req SearchRequest) (SearchStatus, error) {
	resumed := req.ResumeFrom
	var seed *search.Checkpoint
	if resumed != "" {
		embedded, ckpt, err := s.resumeSeed(resumed)
		if err != nil {
			return SearchStatus{}, err
		}
		seed = ckpt
		workers, every := req.Workers, req.CheckpointEvery
		req = embedded
		req.ResumeFrom = ""
		if workers > 0 {
			req.Workers = workers
		}
		if every > 0 {
			req.CheckpointEvery = every
		}
	}
	job := &searchJob{req: req, done: make(chan struct{}), state: SearchRunning, resumed: resumed, source: resumed}
	if err := s.launchSearch(job, seed); err != nil {
		return SearchStatus{}, err
	}
	return job.status(), nil
}

// launchSearch compiles job.req, admits it, registers the job and starts
// runSearch, which returns both admission tokens when the job ends. A job
// without an ID takes the next fresh one; a job with an ID (ResumeSearches
// restarting it under its own) conflicts with a registered job of that ID.
// Once Close has begun, every job is refused.
func (s *Service) launchSearch(job *searchJob, seed *search.Checkpoint) error {
	spec, err := s.compileSearchSpec(job.req)
	if err != nil {
		return err
	}
	select {
	case s.searchSlots <- struct{}{}:
	default:
		return &Error{
			Kind:       KindOverloaded,
			Msg:        fmt.Sprintf("service: all %d search-job slots busy", s.cfg.MaxSearchJobs),
			RetryAfter: retryAfter,
		}
	}
	if err := s.admit(context.Background()); err != nil {
		<-s.searchSlots
		return err
	}
	s.searchMu.Lock()
	var refused error
	if s.closed {
		refused = &Error{Kind: KindOverloaded, Msg: "service: closed, search jobs refused", RetryAfter: retryAfter}
	} else if _, taken := s.searches[job.id]; taken {
		refused = &Error{Kind: KindConflict, Msg: fmt.Sprintf("service: search %s already registered", job.id)}
	}
	if refused != nil {
		s.searchMu.Unlock()
		<-s.sem
		<-s.searchSlots
		return refused
	}
	if job.id == "" {
		s.searchSeq++
		job.id, job.seq = fmt.Sprintf("s%d", s.searchSeq), s.searchSeq
	}
	job.ctx, job.cancel = context.WithCancel(context.Background())
	s.searches[job.id] = job
	s.searchMu.Unlock()
	s.pruneSearches()

	go s.runSearch(job, spec, seed)
	return nil
}

// compileSearchSpec resolves and validates everything cheap: system,
// assignment, agents, point, formula syntax, α, payoffs, mode.
func (s *Service) compileSearchSpec(req SearchRequest) (*searchSpec, error) {
	sess, err := s.store.get(req.System)
	if err != nil {
		return nil, err
	}
	m, err := sess.model(orPost(req.Assign), s.engine)
	if err != nil {
		return nil, err
	}
	n := sess.sys.NumAgents()
	if req.Agent < 1 || req.Agent > n {
		return nil, &Error{Kind: KindBadRequest,
			Msg: fmt.Sprintf("service: agent must be 1..%d, got %d", n, req.Agent)}
	}
	if req.Opponent < 1 || req.Opponent > n {
		return nil, &Error{Kind: KindBadRequest,
			Msg: fmt.Sprintf("service: opponent must be 1..%d, got %d", n, req.Opponent)}
	}
	tree := sess.sys.TreeByAdversary(req.At.Tree)
	if tree == nil {
		return nil, &Error{Kind: KindBadRequest,
			Msg: fmt.Sprintf("service: system %q has no tree %q", req.System, req.At.Tree)}
	}
	c := system.Point{Tree: tree, Run: req.At.Run, Time: req.At.Time}
	if !c.IsValid() {
		return nil, &Error{Kind: KindBadRequest,
			Msg: fmt.Sprintf("service: point (%s/r%d, %d) is not in the system", req.At.Tree, req.At.Run, req.At.Time)}
	}
	f, err := logic.Parse(req.Formula)
	if err != nil {
		return nil, badRequest(err)
	}
	alpha, err := rat.Parse(req.Alpha)
	if err != nil {
		return nil, &Error{Kind: KindBadRequest, Msg: "service: alpha", Err: err}
	}
	// The rule's φ is filled in after evaluation; validate α now.
	rule, err := betting.NewRule(nil, alpha)
	if err != nil {
		return nil, badRequest(err)
	}
	payoffs := make([]rat.Rat, 0, len(req.Payoffs)+1)
	for _, p := range req.Payoffs {
		v, err := rat.Parse(p)
		if err != nil {
			return nil, &Error{Kind: KindBadRequest, Msg: "service: payoff " + p, Err: err}
		}
		if v.Sign() <= 0 {
			return nil, &Error{Kind: KindBadRequest, Msg: "service: payoff must be positive, got " + p}
		}
		payoffs = append(payoffs, v)
	}
	if len(payoffs) == 0 {
		payoffs = append(payoffs, rule.Threshold())
	}
	mode, err := search.ParseMode(req.Mode)
	if err != nil {
		return nil, badRequest(err)
	}
	workers := req.Workers
	if workers <= 0 || workers > s.cfg.SearchWorkers {
		workers = s.cfg.SearchWorkers
	}
	every := req.CheckpointEvery
	if every == 0 {
		every = searchCheckpointEvery
	}
	return &searchSpec{
		model:     m,
		sess:      sess,
		phi:       f,
		canonical: f.String(),
		i:         system.AgentID(req.Agent - 1),
		j:         system.AgentID(req.Opponent - 1),
		c:         c,
		rule:      rule,
		payoffs:   payoffs,
		mode:      mode,
		workers:   workers,
		every:     every,
	}, nil
}

// runSearch is the job goroutine: it solves the job, turning a panic into
// a KindPanic failure, and publishes the outcome.
func (s *Service) runSearch(job *searchJob, spec *searchSpec, seed *search.Checkpoint) {
	var err error
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			err = &Error{Kind: KindPanic, Msg: fmt.Sprintf("search job panicked: %v", r)}
		}
		s.finishSearch(job, err)
	}()
	err = s.solveSearch(job, spec, seed)
}

// solveSearch evaluates φ, compiles the problem, runs the engine on
// spec.workers workers and records the result. The job's context stops
// both the evaluation and the engine, whose first poll comes before its
// first expansion.
func (s *Service) solveSearch(job *searchJob, spec *searchSpec, seed *search.Checkpoint) error {
	phi, err := s.searchFact(job.ctx, spec)
	if err != nil {
		return err
	}
	spec.rule.Phi = phi
	// The problem compiles against a ProbAssignment, whose space cache the
	// compile step writes; the model keeps only the sample assignment, so
	// the job makes a ProbAssignment of its own.
	prob := core.NewProbAssignment(spec.sess.sys, spec.model.sample)
	p, err := search.NewProblem(prob, spec.i, spec.j, spec.c, spec.rule, spec.payoffs, spec.mode)
	if err != nil {
		return badRequest(err)
	}

	cfg := search.Config{
		Workers:         spec.workers,
		Cancel:          job.ctx.Err,
		CheckpointEvery: spec.every,
	}
	if s.cfg.SearchCheckpointDir != "" {
		cfg.OnCheckpoint = func(c search.Checkpoint) error {
			return s.writeSearchCheckpoint(job, &c)
		}
	}
	eng := search.New(p, cfg)
	job.mu.Lock()
	job.prob, job.eng = p, eng
	job.mu.Unlock()

	res, err := eng.Run(seed)
	if err != nil {
		// Canceled or failed: persist the final frontier so the job can be
		// resumed, and never publish the provisional incumbent.
		if s.cfg.SearchCheckpointDir != "" {
			final := eng.Checkpoint()
			if werr := s.writeSearchCheckpoint(job, &final); werr != nil && !errors.Is(err, context.Canceled) {
				err = fmt.Errorf("%w (final checkpoint also failed: %v)", err, werr)
			}
		}
		return err
	}
	out := &SearchResult{Value: res.Value.String(), Optimal: true}
	for _, l := range p.Locals() {
		off := res.Strategy.OfferAt(l)
		row := SearchOffer{Local: string(l), Bet: off.Bet}
		if off.Bet {
			row.Payoff = off.Payoff.String()
		}
		out.Strategy = append(out.Strategy, row)
	}
	sort.Slice(out.Strategy, func(a, b int) bool { return out.Strategy[a].Local < out.Strategy[b].Local })
	if s.cfg.SearchCheckpointDir != "" {
		// The search is complete; a leftover checkpoint would resume a
		// finished job, so drop it (best effort).
		os.Remove(s.searchCheckpointPath(job.id))
		s.retireSource(job)
	}
	job.mu.Lock()
	job.result = out
	job.mu.Unlock()
	return nil
}

// searchFact evaluates φ's extension on a fresh evaluator under ctx and
// freezes it as a fact: the engine never touches an evaluator afterwards.
func (s *Service) searchFact(ctx context.Context, spec *searchSpec) (phi system.Fact, err error) {
	err = s.withEvaluator(ctx, spec.model, spec.canonical, func(ev *logic.Evaluator) error {
		ext, err := ev.DenseExtension(spec.phi)
		if err != nil {
			return s.classifyEvalErr(err)
		}
		phi = system.NewFact(spec.canonical, ext.ContainsPoint)
		return nil
	})
	return phi, err
}

// finishSearch returns the job's evaluation slot and search-job token,
// publishes its terminal state and closes done; runSearch calls it once.
// The tokens go first, so a client that sees the job finished can start
// the next one at once. A job stopped by its context's cancellation is
// canceled, whatever stage it stopped at.
func (s *Service) finishSearch(job *searchJob, err error) {
	<-s.sem
	<-s.searchSlots
	job.mu.Lock()
	switch {
	case err == nil:
		job.state = SearchDone
	case errors.Is(err, context.Canceled):
		job.state = SearchCanceled
		job.err = err
	default:
		job.state = SearchFailed
		job.err = err
	}
	job.mu.Unlock()
	job.cancel()
	close(job.done)
}

// searchCheckpointPath is the job's checkpoint file.
func (s *Service) searchCheckpointPath(id string) string {
	return filepath.Join(s.cfg.SearchCheckpointDir, id+".json")
}

// writeSearchCheckpoint durably writes the job checkpoint (see
// writeFileDurable), consulting the BeforeCheckpoint seam first.
func (s *Service) writeSearchCheckpoint(job *searchJob, c *search.Checkpoint) error {
	if err := s.cfg.Seams.checkpoint("write", job.id); err != nil {
		return err
	}
	req, err := json.Marshal(job.req)
	if err != nil {
		return err
	}
	c.Request = req
	doc, err := c.Encode()
	if err != nil {
		return err
	}
	// The engine may hit two checkpoint cadence points on different
	// workers close together; each write has its own temp file, and
	// whichever rename lands last wins. Every checkpoint is a correct
	// cover of the remaining search space, so order does not matter for
	// resume.
	if err := writeFileDurable(s.searchCheckpointPath(job.id), doc, nil); err != nil {
		return err
	}
	s.searchCkpts.Add(1)
	s.retireSource(job)
	return nil
}

// retireSource removes the checkpoint file a hand-resumed job started
// from, once the job has a durable checkpoint of its own or has completed,
// so each checkpoint file has one owner. Best effort, like the job's own.
func (s *Service) retireSource(job *searchJob) {
	job.mu.Lock()
	src := job.source
	job.source = ""
	job.mu.Unlock()
	if src != "" {
		os.Remove(s.searchCheckpointPath(src))
	}
}

// resumeSeed finds the checkpoint for a job id: a retained job's in-memory
// snapshot first (canceled and failed jobs keep their engine state), the
// checkpoint file second. It returns the job's original request, which
// defines the resumed problem; a file carries it in the checkpoint's
// Request. A file that fails DecodeCheckpoint, or whose request does not
// parse, is a KindConflict.
func (s *Service) resumeSeed(id string) (SearchRequest, *search.Checkpoint, error) {
	s.searchMu.Lock()
	job := s.searches[id]
	s.searchMu.Unlock()
	if job != nil {
		job.mu.Lock()
		state, eng := job.state, job.eng
		req := job.req
		job.mu.Unlock()
		switch state {
		case SearchRunning:
			return SearchRequest{}, nil, &Error{Kind: KindConflict,
				Msg: fmt.Sprintf("service: search %s is still running", id)}
		case SearchDone:
			return SearchRequest{}, nil, &Error{Kind: KindConflict,
				Msg: fmt.Sprintf("service: search %s already completed", id)}
		}
		if eng != nil {
			ckpt := eng.Checkpoint()
			return req, &ckpt, nil
		}
	}
	if s.cfg.SearchCheckpointDir == "" {
		return SearchRequest{}, nil, &Error{Kind: KindNotFound,
			Msg: fmt.Sprintf("service: no checkpoint for search %s", id)}
	}
	if err := s.cfg.Seams.checkpoint("load", id); err != nil {
		return SearchRequest{}, nil, err
	}
	doc, err := os.ReadFile(s.searchCheckpointPath(id))
	if err != nil {
		return SearchRequest{}, nil, &Error{Kind: KindNotFound,
			Msg: fmt.Sprintf("service: no checkpoint for search %s", id), Err: err}
	}
	ckpt, err := search.DecodeCheckpoint(doc)
	var req SearchRequest
	if err == nil {
		err = json.Unmarshal(ckpt.Request, &req)
	}
	if err != nil {
		return SearchRequest{}, nil, &Error{Kind: KindConflict,
			Msg: fmt.Sprintf("service: checkpoint for search %s rejected", id), Err: err}
	}
	return req, ckpt, nil
}

// SearchResumeReport summarizes one ResumeSearches scan.
type SearchResumeReport struct {
	// Resumed lists the job IDs restarted from their checkpoint files, in
	// ID order.
	Resumed []string
	// Skipped lists files that were found but not resumed, each with the
	// reason (corrupt, conflicting, or over the job cap). Skipped files are
	// left on disk for manual resume.
	Skipped []string
}

// ResumeSearches scans SearchCheckpointDir for job checkpoints left behind
// by a previous process and restarts each one under its original ID, so
// clients polling a job across a daemon restart keep their handle; New
// already numbered fresh jobs past every one of them. Corrupt or
// conflicting files are skipped (and kept), and resumption stops admitting
// jobs at the MaxSearchJobs cap — the excess stays on disk, resumable by
// hand.
func (s *Service) ResumeSearches() SearchResumeReport {
	var rep SearchResumeReport
	if s.cfg.SearchCheckpointDir == "" {
		return rep
	}
	cands, err := searchCheckpoints(s.cfg.SearchCheckpointDir)
	if err != nil {
		if !os.IsNotExist(err) {
			rep.Skipped = append(rep.Skipped, fmt.Sprintf("%s: %v", s.cfg.SearchCheckpointDir, err))
		}
		return rep
	}
	for _, c := range cands {
		if err := s.resumeJob(c.id, c.seq); err != nil {
			rep.Skipped = append(rep.Skipped, fmt.Sprintf("%s.json: %v", c.id, err))
			continue
		}
		rep.Resumed = append(rep.Resumed, c.id)
	}
	return rep
}

// checkpointFile is one job checkpoint found in SearchCheckpointDir.
type checkpointFile struct {
	id  string
	seq int
}

// searchCheckpoints lists the job checkpoints in dir, s<N>.json, in
// sequence order.
func searchCheckpoints(dir string) ([]checkpointFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []checkpointFile
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "s") || !strings.HasSuffix(name, ".json") {
			continue
		}
		seq, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "s"), ".json"))
		if err != nil || seq <= 0 {
			continue // temp files and strangers, not job checkpoints
		}
		out = append(out, checkpointFile{id: name[:len(name)-len(".json")], seq: seq})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out, nil
}

// resumeJob restarts one checkpointed job under its original ID. The
// checkpoint's request defines the problem and the current config the
// worker count: a restarted daemon may well be sized differently.
func (s *Service) resumeJob(id string, seq int) error {
	req, seed, err := s.resumeSeed(id)
	if err != nil {
		return err
	}
	req.ResumeFrom, req.Workers = "", 0
	job := &searchJob{id: id, seq: seq, req: req, done: make(chan struct{}), state: SearchRunning, resumed: id}
	return s.launchSearch(job, seed)
}

// SearchStatusOf reports one job.
func (s *Service) SearchStatusOf(id string) (SearchStatus, error) {
	s.searchMu.Lock()
	job := s.searches[id]
	s.searchMu.Unlock()
	if job == nil {
		return SearchStatus{}, &Error{Kind: KindNotFound, Msg: fmt.Sprintf("service: unknown search %s", id)}
	}
	return job.status(), nil
}

// CancelSearch cancels a running job's context and waits for it to stop
// (φ's evaluation polls the context at every subformula and the engine
// once per node expansion, so this is prompt). Canceling a finished job is
// a no-op returning its status.
func (s *Service) CancelSearch(id string) (SearchStatus, error) {
	s.searchMu.Lock()
	job := s.searches[id]
	s.searchMu.Unlock()
	if job == nil {
		return SearchStatus{}, &Error{Kind: KindNotFound, Msg: fmt.Sprintf("service: unknown search %s", id)}
	}
	job.cancel()
	<-job.done
	return job.status(), nil
}

// Searches lists retained jobs, oldest first.
func (s *Service) Searches() []SearchStatus {
	jobs := s.searchesBySeq()
	out := make([]SearchStatus, 0, len(jobs))
	for _, job := range jobs {
		out = append(out, job.status())
	}
	return out
}

// searchesBySeq snapshots retained jobs in creation order.
func (s *Service) searchesBySeq() []*searchJob {
	s.searchMu.Lock()
	defer s.searchMu.Unlock()
	out := make([]*searchJob, 0, len(s.searches))
	for _, job := range s.searches {
		out = append(out, job)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out
}

// pruneSearches evicts the oldest finished jobs above the retention cap.
func (s *Service) pruneSearches() {
	jobs := s.searchesBySeq()
	s.searchMu.Lock()
	defer s.searchMu.Unlock()
	for _, job := range jobs {
		if len(s.searches) <= maxRetainedSearches {
			return
		}
		select {
		case <-job.done:
			delete(s.searches, job.id)
		default:
		}
	}
}

// searchStats aggregates the search block for Stats.
func (s *Service) searchStats() SearchStats {
	st := SearchStats{CheckpointsWritten: s.searchCkpts.Load()}
	for _, job := range s.searchesBySeq() {
		job.mu.Lock()
		state, eng := job.state, job.eng
		job.mu.Unlock()
		switch state {
		case SearchRunning:
			st.JobsRunning++
		case SearchDone:
			st.JobsDone++
		case SearchCanceled:
			st.JobsCanceled++
		case SearchFailed:
			st.JobsFailed++
		}
		if eng != nil {
			p := eng.Progress()
			st.NodesExpanded += p.NodesExpanded
			st.NodesPruned += p.NodesPruned
			st.LeafEvals += p.LeafEvals
		}
	}
	return st
}
