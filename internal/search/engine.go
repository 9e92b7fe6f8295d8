package search

import (
	"fmt"
	"sort"
	"sync"

	"kpa/internal/betting"
	"kpa/internal/rat"
)

// Config tunes an engine run.
type Config struct {
	// Workers is the number of concurrent expansion workers (min 1).
	Workers int
	// Cancel, when non-nil, is polled once per node expansion; a non-nil
	// error stops the search, which then reports that error and retains a
	// resumable frontier (the PR 5 SetCancel contract).
	Cancel func() error
	// CheckpointEvery emits a checkpoint to OnCheckpoint each time this
	// many further nodes have been expanded (0 disables).
	CheckpointEvery uint64
	// OnCheckpoint receives periodic checkpoints. An error stops the
	// search — the caller's last durable checkpoint stays authoritative.
	OnCheckpoint func(Checkpoint) error
}

// Progress is a point-in-time account of a run.
type Progress struct {
	NodesExpanded      uint64 `json:"nodesExpanded"`
	NodesPruned        uint64 `json:"nodesPruned"`
	LeafEvals          uint64 `json:"leafEvals"`
	CheckpointsWritten uint64 `json:"checkpointsWritten"`
	FrontierLen        int    `json:"frontierLen"`
	MaxDepth           int    `json:"maxDepth"`
	// Incumbent is the best full-strategy objective found so far (exact
	// rational, string form); empty before the first leaf evaluation.
	Incumbent string `json:"incumbent,omitempty"`
}

// Result is the outcome of a completed (or stopped) run.
type Result struct {
	// Value is the optimum objective (bottleneck expectation over K_i(c)).
	Value rat.Rat
	// Choices is the witnessing choice vector over Problem.Locals().
	Choices []uint8
	// Strategy is the witnessing betting strategy.
	Strategy betting.Strategy
	// Optimal reports whether the search space was exhausted. When false
	// (canceled or failed), Value/Choices describe the incumbent only.
	Optimal  bool
	Progress Progress
}

// node is one branch-and-bound tree node: a choice prefix over the
// problem's ordered locals plus cached per-space partial sums.
type node struct {
	prefix []uint8
	sums   []rat.Rat
}

// Engine runs parallel branch and bound over one compiled Problem. Workers
// share a LIFO frontier under a single mutex: pops take the most recently
// pushed (deepest, most promising) node, giving depth-first dives that
// tighten the incumbent early while idle workers peel parallel subtrees off
// the stack. The frontier plus the per-worker active registry is an exact
// cover of the remaining search space at all times, which is what makes
// Checkpoint correct whenever it is called.
type Engine struct {
	p   *Problem
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond

	// All fields below are guarded by mu.
	frontier []*node       // guarded by mu
	active   map[int]*node // guarded by mu; worker id → node being expanded
	busy     int           // guarded by mu
	started  bool          // guarded by mu
	stopped  bool          // guarded by mu
	stopErr  error         // guarded by mu
	hasInc   bool          // guarded by mu
	incVal   rat.Rat       // guarded by mu
	incCh    []uint8       // guarded by mu
	stats    Progress      // guarded by mu (FrontierLen filled on read)
	nextCkpt uint64        // guarded by mu
}

// New prepares an engine over the problem. Run may be called once.
func New(p *Problem, cfg Config) *Engine {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	e := &Engine{p: p, cfg: cfg, active: make(map[int]*node)}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// Run executes the search to completion, cancellation, or failure. A nil
// seed starts from the root with a greedy-completion incumbent; a non-nil
// seed must carry this problem's fingerprint and restores the frontier,
// incumbent, and counters of an earlier run's checkpoint. On cancellation
// or failure the returned error is non-nil, Result holds the provisional
// incumbent with Optimal=false, and Checkpoint() yields a resumable
// snapshot of the remaining work.
func (e *Engine) Run(seed *Checkpoint) (Result, error) {
	e.mu.Lock()
	already := e.started
	e.started = true
	e.mu.Unlock()
	if already {
		return Result{}, fmt.Errorf("search: engine already ran")
	}
	if err := e.install(seed); err != nil {
		e.stop(err)
		return Result{}, err
	}

	var wg sync.WaitGroup
	for id := 0; id < e.cfg.Workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			e.worker(id)
		}(id)
	}
	wg.Wait()

	e.mu.Lock()
	defer e.mu.Unlock()
	prog := e.stats
	prog.FrontierLen = len(e.frontier) + len(e.active)
	if e.hasInc {
		prog.Incumbent = e.incVal.String()
	}
	res := Result{
		Value:    e.incVal,
		Choices:  append([]uint8(nil), e.incCh...),
		Optimal:  e.stopErr == nil && len(e.frontier) == 0,
		Progress: prog,
	}
	if e.hasInc {
		s, err := e.p.StrategyOf(res.Choices)
		if err != nil {
			return Result{}, err
		}
		res.Strategy = s
	}
	return res, e.stopErr
}

// install sets up the initial frontier, incumbent, and checkpoint cadence.
// It runs in Run's single-goroutine prologue, before any worker starts, and
// takes the lock itself so every guarded access in it is covered.
func (e *Engine) install(seed *Checkpoint) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	depth := e.p.Depth()
	if seed == nil {
		e.frontier = []*node{{prefix: nil, sums: e.p.newSums()}}
		ch := e.p.greedyChoices()
		v, err := e.p.Objective(ch)
		if err != nil {
			return err
		}
		e.hasInc, e.incVal, e.incCh = true, v, ch
		e.stats.LeafEvals++
		e.nextCkpt = e.stats.NodesExpanded + e.cfg.CheckpointEvery
		return nil
	}
	if seed.Fingerprint != e.p.fingerprint {
		return fmt.Errorf("search: checkpoint fingerprint %s does not match problem %s",
			seed.Fingerprint, e.p.fingerprint)
	}
	for _, prefix := range seed.Frontier {
		if len(prefix) > depth {
			return fmt.Errorf("search: checkpoint prefix longer than tree depth %d", depth)
		}
		sums := e.p.newSums()
		for k, ch := range prefix {
			if int(ch) >= e.p.NumOffers() {
				return fmt.Errorf("search: checkpoint choice %d out of range at depth %d", ch, k)
			}
			for d := range sums {
				sums[d] = sums[d].Add(e.p.contrib[k][ch][d])
			}
		}
		e.frontier = append(e.frontier, &node{prefix: append([]uint8(nil), prefix...), sums: sums})
	}
	if seed.Incumbent != nil {
		ch := append([]uint8(nil), seed.Incumbent.Choices...)
		v, err := e.p.Objective(ch)
		if err != nil {
			return fmt.Errorf("search: checkpoint incumbent invalid: %w", err)
		}
		stored, err := rat.Parse(seed.Incumbent.Value)
		if err != nil || !stored.Equal(v) {
			return fmt.Errorf("search: checkpoint incumbent value %q does not re-evaluate to %s",
				seed.Incumbent.Value, v)
		}
		e.hasInc, e.incVal, e.incCh = true, v, ch
	} else {
		ch := e.p.greedyChoices()
		v, err := e.p.Objective(ch)
		if err != nil {
			return err
		}
		e.hasInc, e.incVal, e.incCh = true, v, ch
		e.stats.LeafEvals++
	}
	e.stats.NodesExpanded = seed.NodesExpanded
	e.stats.NodesPruned = seed.NodesPruned
	e.stats.LeafEvals += seed.LeafEvals
	e.nextCkpt = e.stats.NodesExpanded + e.cfg.CheckpointEvery
	return nil
}

// worker is one expansion loop. The deferred recovery keeps two invariants
// no matter how the loop exits: a node this worker still owns returns to
// the frontier (so checkpoints after cancellation or a panic cover the full
// remaining space), and a panic becomes the run's stop error instead of
// crossing the goroutine boundary.
func (e *Engine) worker(id int) {
	defer func() {
		r := recover()
		e.mu.Lock()
		if n, ok := e.active[id]; ok {
			e.frontier = append(e.frontier, n)
			delete(e.active, id)
			e.busy--
		}
		if r != nil {
			e.stopped = true
			if e.stopErr == nil {
				e.stopErr = fmt.Errorf("search: worker %d panicked: %v", id, r)
			}
		}
		e.cond.Broadcast()
		e.mu.Unlock()
	}()
	e.loop(id)
}

func (e *Engine) loop(id int) {
	depth := e.p.Depth()
	e.mu.Lock()
	for {
		for len(e.frontier) == 0 && e.busy > 0 && !e.stopped {
			e.cond.Wait()
		}
		if e.stopped || len(e.frontier) == 0 {
			e.cond.Broadcast()
			e.mu.Unlock()
			return
		}
		n := e.frontier[len(e.frontier)-1]
		e.frontier = e.frontier[:len(e.frontier)-1]
		e.busy++
		e.active[id] = n
		hasInc, incVal := e.hasInc, e.incVal
		needCkpt := e.cfg.OnCheckpoint != nil && e.cfg.CheckpointEvery > 0 &&
			e.stats.NodesExpanded >= e.nextCkpt
		if needCkpt {
			e.nextCkpt = e.stats.NodesExpanded + e.cfg.CheckpointEvery
		}
		e.mu.Unlock()

		if needCkpt {
			snap := e.Checkpoint()
			if err := e.cfg.OnCheckpoint(snap); err != nil {
				e.stop(fmt.Errorf("search: checkpoint: %w", err))
				return
			}
			e.mu.Lock()
			e.stats.CheckpointsWritten++
			e.mu.Unlock()
		}
		if e.cfg.Cancel != nil {
			if err := e.cfg.Cancel(); err != nil {
				e.stop(err)
				return
			}
		}

		// Expand outside the lock. A stale incumbent only weakens pruning,
		// never correctness: bounds are exact, so any survivor is re-tested
		// against the fresh incumbent when popped.
		k := len(n.prefix)
		var children []*node
		var pruned, leaves uint64
		bestLeafSet := false
		var bestLeafVal rat.Rat
		var bestLeafCh []uint8
		if k == depth {
			// Only seeded checkpoints can contain full-length prefixes;
			// normal expansion evaluates leaves inline below.
			v := e.p.fold(n.sums)
			leaves++
			bestLeafSet, bestLeafVal = true, v
			bestLeafCh = append([]uint8(nil), n.prefix...)
		} else if hasInc && !e.p.better(e.p.bound(k, n.sums), incVal) {
			pruned++
		} else {
			// Push in reverse promise order so the LIFO pop explores the
			// most promising child first.
			order := e.p.childOrder[k]
			for i := len(order) - 1; i >= 0; i-- {
				o := order[i]
				sums := make([]rat.Rat, len(n.sums))
				for d := range sums {
					sums[d] = n.sums[d].Add(e.p.contrib[k][o][d])
				}
				if k+1 == depth {
					v := e.p.fold(sums)
					leaves++
					if !bestLeafSet || e.p.better(v, bestLeafVal) {
						bestLeafSet, bestLeafVal = true, v
						bestLeafCh = append(append([]uint8(nil), n.prefix...), o)
					}
					continue
				}
				if hasInc && !e.p.better(e.p.bound(k+1, sums), incVal) {
					pruned++
					continue
				}
				children = append(children, &node{
					prefix: append(append([]uint8(nil), n.prefix...), o),
					sums:   sums,
				})
			}
		}

		e.mu.Lock()
		e.stats.NodesExpanded++
		e.stats.NodesPruned += pruned
		e.stats.LeafEvals += leaves
		if k > e.stats.MaxDepth {
			e.stats.MaxDepth = k
		}
		if bestLeafSet && (!e.hasInc || e.p.better(bestLeafVal, e.incVal)) {
			e.hasInc, e.incVal, e.incCh = true, bestLeafVal, bestLeafCh
		}
		e.frontier = append(e.frontier, children...)
		delete(e.active, id)
		e.busy--
		e.cond.Broadcast()
	}
}

// stop records the first stop error and wakes all workers. The calling
// worker's active node is returned to the frontier by its deferred cleanup.
func (e *Engine) stop(err error) {
	e.mu.Lock()
	e.stopped = true
	if e.stopErr == nil {
		e.stopErr = err
	}
	e.cond.Broadcast()
	e.mu.Unlock()
}

// Progress reports current counters; safe to call concurrently with Run.
func (e *Engine) Progress() Progress {
	e.mu.Lock()
	defer e.mu.Unlock()
	p := e.stats
	p.FrontierLen = len(e.frontier) + len(e.active)
	if e.hasInc {
		p.Incumbent = e.incVal.String()
	}
	return p
}

// Checkpoint snapshots the remaining work: every frontier node plus every
// node currently held by a worker, with the incumbent and counters. The
// snapshot is a cover of the unexplored space — nodes mid-expansion may
// have already pushed some children, so resuming can re-expand a subtree,
// which costs work but never changes the optimum. Valid mid-run and after
// a canceled or failed Run.
func (e *Engine) Checkpoint() Checkpoint {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := Checkpoint{
		Fingerprint:   e.p.fingerprint,
		NodesExpanded: e.stats.NodesExpanded,
		NodesPruned:   e.stats.NodesPruned,
		LeafEvals:     e.stats.LeafEvals,
	}
	for _, n := range e.frontier {
		c.Frontier = append(c.Frontier, append([]uint8(nil), n.prefix...))
	}
	ids := make([]int, 0, len(e.active))
	for id := range e.active {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		c.Frontier = append(c.Frontier, append([]uint8(nil), e.active[id].prefix...))
	}
	if e.hasInc {
		c.Incumbent = &Incumbent{
			Value:   e.incVal.Key(),
			Choices: append([]uint8(nil), e.incCh...),
		}
	}
	return c
}
