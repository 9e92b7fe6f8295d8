package service

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"kpa/internal/encode"
	"kpa/internal/faultinject"
	"kpa/internal/frame"
	"kpa/internal/rat"
	"kpa/internal/system"
)

// coupledSearchDoc encodes a two-tree system whose strategy search is
// genuinely combinatorial: the trees share p_2's local states (p_2
// observes only the first obsLen steps of the history, never the tree),
// the transition probabilities differ (2/5-left vs 1/3-left), and the
// proposition "phi" — an env marker baked in at build time — is inverted
// between the trees, so every offer that wins in one tree loses in the
// other. Agent 1 observes only the time.
func coupledSearchDoc(t *testing.T, depth, obsLen int) []byte {
	t.Helper()
	mark := func(tree, hist string) string {
		r := uint32(2166136261)
		for _, ch := range hist {
			r = (r ^ uint32(ch)) * 16777619
		}
		x := r%7 < 3
		if tree == "T1" {
			x = !x
		}
		if x {
			return ":X"
		}
		return ":O"
	}
	mk := func(tree, hist string, d int) system.GlobalState {
		obs := hist
		if len(obs) > obsLen {
			obs = obs[:obsLen]
		}
		return system.GlobalState{
			Env: tree + ":" + hist + mark(tree, hist),
			Locals: []system.LocalState{
				system.LocalState("a0:t" + strconv.Itoa(d)),
				system.LocalState("a1:" + obs),
			},
		}
	}
	build := func(name string, pLeft rat.Rat) *system.Tree {
		tb := system.NewTree(name, mk(name, "", 0))
		type fnode struct {
			id system.NodeID
			h  string
			d  int
		}
		frontier := []fnode{{0, "", 0}}
		for len(frontier) > 0 {
			var next []fnode
			for _, f := range frontier {
				if f.d == depth {
					continue
				}
				l := tb.Child(f.id, pLeft, mk(name, f.h+"a", f.d+1))
				r := tb.Child(f.id, rat.One.Sub(pLeft), mk(name, f.h+"b", f.d+1))
				next = append(next, fnode{l, f.h + "a", f.d + 1}, fnode{r, f.h + "b", f.d + 1})
			}
			frontier = next
		}
		return tb.MustBuild()
	}
	sys := system.MustNew(2, build("T0", rat.New(2, 5)), build("T1", rat.New(1, 3)))
	doc := encode.Encode(sys)
	doc.Props = map[string]encode.PropDoc{"phi": {EnvHasSuffix: ":X"}}
	data, err := encode.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// smallSearchReq / bigSearchReq are the two standard requests against the
// uploaded coupled system: 256 strategies (20-ish node expansions) and
// 65536 strategies (hundreds of expansions — enough to checkpoint often).
func smallSearchReq() SearchRequest {
	return SearchRequest{
		System: "coupled", Agent: 1, Opponent: 2,
		At: SearchPoint{Tree: "T0", Run: 0, Time: 4}, Formula: "phi", Alpha: "1/2",
	}
}

func bigSearchReq() SearchRequest {
	return SearchRequest{
		System: "coupled", Agent: 1, Opponent: 2,
		At: SearchPoint{Tree: "T0", Run: 0, Time: 6}, Formula: "phi", Alpha: "1/2",
	}
}

// everyNode makes req checkpoint after every expanded node, so a test's
// checkpoint seam fires as soon as the job starts.
func everyNode(req SearchRequest) SearchRequest {
	req.CheckpointEvery = 1
	return req
}

func uploadCoupled(t *testing.T, svc *Service, depth, obsLen int) {
	t.Helper()
	if _, err := svc.Upload("coupled", coupledSearchDoc(t, depth, obsLen)); err != nil {
		t.Fatal(err)
	}
}

// waitSearch polls until the job leaves the running state.
func waitSearch(t *testing.T, svc *Service, id string) SearchStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := svc.SearchStatusOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != SearchRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("search %s still running after 30s: %+v", id, st.Progress)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ckptGate blocks search-checkpoint writes until released, so tests can
// hold a job mid-search deterministically.
type ckptGate struct {
	entered chan struct{}
	release chan struct{}
}

func newCkptGate() *ckptGate {
	return &ckptGate{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (g *ckptGate) seam(op, jobID string) error {
	if op != "write" {
		return nil
	}
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.release
	return nil
}

func TestSearchJobLifecycle(t *testing.T) {
	svc := New(Config{})
	uploadCoupled(t, svc, 6, 3)

	st, err := svc.StartSearch(smallSearchReq())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.System != "coupled" || st.Mode != "adversary" {
		t.Fatalf("created status: %+v", st)
	}

	fin := waitSearch(t, svc, st.ID)
	if fin.State != SearchDone {
		t.Fatalf("state = %s (err=%q), want done", fin.State, fin.Error)
	}
	// Problem shape is published once the async compile finishes.
	if fin.Depth != 8 || fin.TotalStrategies != 256 || !fin.TotalExact {
		t.Fatalf("compiled shape: depth=%d total=%d exact=%v, want 8/256/true",
			fin.Depth, fin.TotalStrategies, fin.TotalExact)
	}
	if fin.Result == nil || !fin.Result.Optimal || fin.Result.Value == "" {
		t.Fatalf("result: %+v", fin.Result)
	}
	if len(fin.Result.Strategy) != fin.Depth {
		t.Fatalf("strategy has %d rows, want one per local (%d)",
			len(fin.Result.Strategy), fin.Depth)
	}
	for k := 1; k < len(fin.Result.Strategy); k++ {
		if fin.Result.Strategy[k-1].Local >= fin.Result.Strategy[k].Local {
			t.Fatal("strategy rows not sorted by local state")
		}
	}
	if fin.Progress.NodesExpanded == 0 || fin.Progress.LeafEvals == 0 {
		t.Fatalf("progress counters empty: %+v", fin.Progress)
	}

	// The ally job on the same instance must also complete, and the two
	// optima are generally different objectives.
	req := smallSearchReq()
	req.Mode = "ally"
	st2, err := svc.StartSearch(req)
	if err != nil {
		t.Fatal(err)
	}
	fin2 := waitSearch(t, svc, st2.ID)
	if fin2.State != SearchDone || fin2.Mode != "ally" {
		t.Fatalf("ally job: state=%s mode=%s", fin2.State, fin2.Mode)
	}

	// Listing returns both, in creation order.
	list := svc.Searches()
	if len(list) != 2 || list[0].ID != st.ID || list[1].ID != st2.ID {
		t.Fatalf("Searches() = %d entries, want the two jobs in order", len(list))
	}
	stats := svc.Stats().Search
	if stats.JobsDone != 2 || stats.JobsRunning != 0 {
		t.Fatalf("search stats: %+v, want 2 done", stats)
	}
	if stats.NodesExpanded == 0 || stats.LeafEvals == 0 {
		t.Fatalf("search stats counters empty: %+v", stats)
	}

	if _, err := svc.SearchStatusOf("s999"); KindOf(err) != KindNotFound {
		t.Fatalf("unknown job id: %v", err)
	}
}

func TestSearchRequestValidation(t *testing.T) {
	svc := New(Config{})
	uploadCoupled(t, svc, 6, 3)
	base := smallSearchReq()

	cases := []struct {
		name string
		mut  func(*SearchRequest)
		kind ErrorKind
	}{
		{"unknown system", func(r *SearchRequest) { r.System = "nope" }, KindNotFound},
		{"agent zero", func(r *SearchRequest) { r.Agent = 0 }, KindBadRequest},
		{"agent out of range", func(r *SearchRequest) { r.Agent = 9 }, KindBadRequest},
		{"opponent out of range", func(r *SearchRequest) { r.Opponent = 9 }, KindBadRequest},
		{"unknown tree", func(r *SearchRequest) { r.At.Tree = "T9" }, KindBadRequest},
		{"invalid point", func(r *SearchRequest) { r.At.Time = 99 }, KindBadRequest},
		{"bad formula", func(r *SearchRequest) { r.Formula = "((" }, KindBadRequest},
		{"bad alpha", func(r *SearchRequest) { r.Alpha = "0" }, KindBadRequest},
		{"bad payoff", func(r *SearchRequest) { r.Payoffs = []string{"-1"} }, KindBadRequest},
		{"bad mode", func(r *SearchRequest) { r.Mode = "sideways" }, KindBadRequest},
		{"resume unknown", func(r *SearchRequest) { r.ResumeFrom = "s777" }, KindNotFound},
	}
	for _, tc := range cases {
		req := base
		tc.mut(&req)
		_, err := svc.StartSearch(req)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if KindOf(err) != tc.kind {
			t.Errorf("%s: kind = %v (%v), want %v", tc.name, KindOf(err), err, tc.kind)
		}
	}
	// Nothing above may have left a job behind.
	if got := len(svc.Searches()); got != 0 {
		t.Fatalf("%d jobs registered by invalid requests", got)
	}
}

func TestSearchCancelAndResume(t *testing.T) {
	gate := newCkptGate()
	dir := t.TempDir()
	svc := New(Config{
		SearchCheckpointDir: dir,
		Seams:               &Seams{BeforeCheckpoint: gate.seam},
	})
	uploadCoupled(t, svc, 8, 4)

	// Clean value for comparison, from a gate-free service.
	clean := New(Config{})
	uploadCoupled(t, clean, 8, 4)
	cst, err := clean.StartSearch(bigSearchReq())
	if err != nil {
		t.Fatal(err)
	}
	want := waitSearch(t, clean, cst.ID)
	if want.State != SearchDone {
		t.Fatalf("clean run: %s (%s)", want.State, want.Error)
	}

	st, err := svc.StartSearch(everyNode(bigSearchReq()))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered // the job is mid-checkpoint: definitely running

	type cancelRes struct {
		st  SearchStatus
		err error
	}
	done := make(chan cancelRes, 1)
	go func() {
		cs, cerr := svc.CancelSearch(st.ID)
		done <- cancelRes{cs, cerr}
	}()
	// Release the gate only after the job's context is canceled, so the
	// engine cannot finish the search before it notices the cancellation.
	svc.searchMu.Lock()
	job := svc.searches[st.ID]
	svc.searchMu.Unlock()
	<-job.ctx.Done()
	close(gate.release)
	cr := <-done
	if cr.err != nil {
		t.Fatal(cr.err)
	}
	if cr.st.State != SearchCanceled {
		t.Fatalf("state after cancel = %s, want canceled", cr.st.State)
	}
	// A canceled job never publishes a (partial) result.
	if cr.st.Result != nil {
		t.Fatalf("canceled job has a result: %+v", cr.st.Result)
	}

	// Resuming from the canceled job completes the search with the same
	// optimum as the uninterrupted run.
	res, err := svc.StartSearch(SearchRequest{ResumeFrom: st.ID})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom != st.ID {
		t.Fatalf("ResumedFrom = %q, want %q", res.ResumedFrom, st.ID)
	}
	fin := waitSearch(t, svc, res.ID)
	if fin.State != SearchDone || fin.Result == nil {
		t.Fatalf("resumed job: %s (%s)", fin.State, fin.Error)
	}
	if fin.Result.Value != want.Result.Value {
		t.Fatalf("resumed value %s != clean value %s", fin.Result.Value, want.Result.Value)
	}
	stats := svc.Stats().Search
	if stats.JobsCanceled != 1 || stats.JobsDone != 1 {
		t.Fatalf("search stats: %+v, want 1 canceled + 1 done", stats)
	}
}

// TestSearchChaosKillResumeAcrossRestart is the satellite chaos scenario:
// a seeded injector kills the checkpoint write mid-search (as a crashing
// daemon would), the job fails without ever publishing a result, and a
// *fresh* service pointed at the same checkpoint directory — a restarted
// daemon — resumes from the last durable checkpoint and lands on exactly
// the answer an undisturbed search finds.
func TestSearchChaosKillResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	errInjected := errors.New("injected checkpoint fault")
	inj := faultinject.New(20260808)
	inj.Set("search.ckpt", faultinject.Plan{At: 5, Err: errInjected})

	svc := New(Config{
		SearchCheckpointDir: dir,
		Seams: &Seams{BeforeCheckpoint: func(op, jobID string) error {
			if op != "write" {
				return nil
			}
			return inj.Hit("search.ckpt")
		}},
	})
	uploadCoupled(t, svc, 8, 4)

	// The undisturbed answer.
	clean := New(Config{})
	uploadCoupled(t, clean, 8, 4)
	cst, err := clean.StartSearch(bigSearchReq())
	if err != nil {
		t.Fatal(err)
	}
	want := waitSearch(t, clean, cst.ID)

	st, err := svc.StartSearch(everyNode(bigSearchReq()))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitSearch(t, svc, st.ID)
	if fin.State != SearchFailed {
		t.Fatalf("state after kill = %s, want failed", fin.State)
	}
	if !strings.Contains(fin.Error, "injected checkpoint fault") {
		t.Fatalf("job error = %q, want the injected fault", fin.Error)
	}
	if fin.Result != nil {
		t.Fatalf("killed job cached a partial result: %+v", fin.Result)
	}
	if inj.Fired("search.ckpt") != 1 {
		t.Fatalf("injector fired %d times, want 1", inj.Fired("search.ckpt"))
	}
	path := filepath.Join(dir, st.ID+".json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no durable checkpoint survived the kill: %v", err)
	}

	// "Restart": a brand-new service over the same directory knows nothing
	// about the dead job except its checkpoint file.
	svc2 := New(Config{SearchCheckpointDir: dir})
	uploadCoupled(t, svc2, 8, 4)
	res, err := svc2.StartSearch(SearchRequest{ResumeFrom: st.ID})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedFrom != st.ID {
		t.Fatalf("ResumedFrom = %q, want %q", res.ResumedFrom, st.ID)
	}
	fin2 := waitSearch(t, svc2, res.ID)
	if fin2.State != SearchDone || fin2.Result == nil {
		t.Fatalf("resumed job: %s (%s)", fin2.State, fin2.Error)
	}
	if fin2.Result.Value != want.Result.Value {
		t.Fatalf("post-restart value %s != clean value %s", fin2.Result.Value, want.Result.Value)
	}
	// The finished job cleans up its checkpoint file.
	if _, err := os.Stat(filepath.Join(dir, res.ID+".json")); !os.IsNotExist(err) {
		t.Fatalf("finished job left its checkpoint behind: %v", err)
	}
}

// TestSearchResumeDiscoveryAcrossRestart is the boot-time flavor of the
// restart scenario: nobody names the dead job. A daemon restarted over the
// checkpoint directory discovers the leftover file itself, resumes the job
// under its original ID — with a different worker count than the crashed
// process used — and new jobs are numbered past the resumed one.
func TestSearchResumeDiscoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	gate := newCkptGate()
	svc := New(Config{
		SearchWorkers:       4,
		SearchCheckpointDir: dir,
		Seams:               &Seams{BeforeCheckpoint: gate.seam},
	})
	uploadCoupled(t, svc, 8, 4)

	// The undisturbed answer.
	clean := New(Config{})
	uploadCoupled(t, clean, 8, 4)
	cst, err := clean.StartSearch(bigSearchReq())
	if err != nil {
		t.Fatal(err)
	}
	want := waitSearch(t, clean, cst.ID)
	if want.State != SearchDone {
		t.Fatalf("clean run: %s (%s)", want.State, want.Error)
	}

	st, err := svc.StartSearch(everyNode(bigSearchReq()))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	// Cancel mid-search so a partial checkpoint lands on disk, then abandon
	// the service — the "crashed daemon".
	cancelDone := make(chan struct{})
	go func() {
		svc.CancelSearch(st.ID)
		close(cancelDone)
	}()
	svc.searchMu.Lock()
	job := svc.searches[st.ID]
	svc.searchMu.Unlock()
	<-job.ctx.Done()
	close(gate.release)
	<-cancelDone
	if _, err := os.Stat(filepath.Join(dir, st.ID+".json")); err != nil {
		t.Fatalf("no checkpoint file survived: %v", err)
	}

	// Plant junk next to it: a corrupt checkpoint under a valid job name,
	// and a file that is not a job checkpoint at all.
	if err := os.WriteFile(filepath.Join(dir, "s9.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}

	// "Restart" with a different worker count than the checkpoint's request
	// asked for.
	svc2 := New(Config{SearchWorkers: 1, SearchCheckpointDir: dir})
	uploadCoupled(t, svc2, 8, 4)
	rep := svc2.ResumeSearches()
	if len(rep.Resumed) != 1 || rep.Resumed[0] != st.ID {
		t.Fatalf("Resumed = %v, want [%s] (skipped: %v)", rep.Resumed, st.ID, rep.Skipped)
	}
	if len(rep.Skipped) != 1 || !strings.Contains(rep.Skipped[0], "s9.json") {
		t.Fatalf("Skipped = %v, want the corrupt s9.json only", rep.Skipped)
	}
	fin := waitSearch(t, svc2, st.ID)
	if fin.State != SearchDone || fin.Result == nil {
		t.Fatalf("resumed job: %s (%s)", fin.State, fin.Error)
	}
	if fin.ResumedFrom != st.ID {
		t.Fatalf("ResumedFrom = %q, want %q", fin.ResumedFrom, st.ID)
	}
	if fin.Result.Value != want.Result.Value {
		t.Fatalf("resumed value %s != clean value %s", fin.Result.Value, want.Result.Value)
	}

	// The sequence counter cleared the junk file's s9 too: the next job may
	// not collide with anything on disk.
	st2, err := svc2.StartSearch(smallSearchReq())
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != "s10" {
		t.Fatalf("next job ID = %s, want s10 (seq bumped past discovered files)", st2.ID)
	}
	if fin2 := waitSearch(t, svc2, st2.ID); fin2.State != SearchDone {
		t.Fatalf("follow-up job: %s (%s)", fin2.State, fin2.Error)
	}

	// Re-running discovery is a no-op conflict-skip for live jobs and a
	// clean skip for the still-corrupt file.
	rep2 := svc2.ResumeSearches()
	if len(rep2.Resumed) != 0 {
		t.Fatalf("second discovery resumed %v", rep2.Resumed)
	}
}

// TestSearchResumeDiscoveryRespectsJobCap pins the cap: with MaxSearchJobs
// of 1, discovery over two leftover checkpoints resumes one and leaves the
// other on disk.
func TestSearchResumeDiscoveryRespectsJobCap(t *testing.T) {
	dir := t.TempDir()
	st1 := drainedSearch(t, dir)
	// Forge a second unfinished job by copying the first checkpoint under
	// the next ID (the filename is the job's key).
	data, err := os.ReadFile(filepath.Join(dir, st1.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "s2.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	gate2 := newCkptGate()
	svc2 := New(Config{
		MaxSearchJobs:       1,
		SearchCheckpointDir: dir,
		Seams:               &Seams{BeforeCheckpoint: gate2.seam},
	})
	uploadCoupled(t, svc2, 8, 4)
	rep := svc2.ResumeSearches()
	if len(rep.Resumed) != 1 || rep.Resumed[0] != st1.ID {
		t.Fatalf("Resumed = %v, want [%s]", rep.Resumed, st1.ID)
	}
	if len(rep.Skipped) != 1 || !strings.Contains(rep.Skipped[0], "s2.json") {
		t.Fatalf("Skipped = %v, want s2.json over the cap", rep.Skipped)
	}
	// The skipped checkpoint is intact on disk for a later manual resume.
	if _, err := os.Stat(filepath.Join(dir, "s2.json")); err != nil {
		t.Fatalf("skipped checkpoint was removed: %v", err)
	}
	close(gate2.release)
	if fin := waitSearch(t, svc2, st1.ID); fin.State != SearchDone {
		t.Fatalf("resumed job: %s (%s)", fin.State, fin.Error)
	}
}

// drainedSearch starts a search over dir, closes the service once the
// job's first checkpoint write begins, and returns the job, whose final
// checkpoint is then on disk: a daemon shut down mid-search.
func drainedSearch(t *testing.T, dir string) SearchStatus {
	t.Helper()
	gate := newCkptGate()
	svc := New(Config{
		SearchCheckpointDir: dir,
		Seams:               &Seams{BeforeCheckpoint: gate.seam},
	})
	uploadCoupled(t, svc, 8, 4)
	st, err := svc.StartSearch(everyNode(bigSearchReq()))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	stop := make(chan struct{})
	go func() {
		svc.Close()
		close(stop)
	}()
	svc.searchMu.Lock()
	job := svc.searches[st.ID]
	svc.searchMu.Unlock()
	<-job.ctx.Done()
	close(gate.release)
	<-stop
	return st
}

// TestSearchResumeSkipsDamagedCheckpoints: a torn and a bit-flipped copy
// of a job's checkpoint are each skipped by discovery, with the frame's
// reason, and kept on disk; a hand resume of either is a typed conflict,
// and the intact job still resumes to the clean optimum.
func TestSearchResumeSkipsDamagedCheckpoints(t *testing.T) {
	dir := t.TempDir()
	st1 := drainedSearch(t, dir)
	data, err := os.ReadFile(filepath.Join(dir, st1.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 1
	damaged := map[string]struct {
		data []byte
		want error
	}{
		"s2": {data[:len(data)/2], frame.ErrTruncated},
		"s3": {flipped, frame.ErrChecksum},
	}
	for id, d := range damaged {
		if err := os.WriteFile(filepath.Join(dir, id+".json"), d.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	svc := New(Config{SearchCheckpointDir: dir})
	uploadCoupled(t, svc, 8, 4)
	rep := svc.ResumeSearches()
	if len(rep.Resumed) != 1 || rep.Resumed[0] != st1.ID {
		t.Fatalf("Resumed = %v, want [%s] (skipped: %v)", rep.Resumed, st1.ID, rep.Skipped)
	}
	if len(rep.Skipped) != 2 {
		t.Fatalf("Skipped = %v, want s2.json and s3.json", rep.Skipped)
	}
	for i, id := range []string{"s2", "s3"} {
		want := damaged[id].want
		if !strings.HasPrefix(rep.Skipped[i], id+".json: ") || !strings.Contains(rep.Skipped[i], want.Error()) {
			t.Errorf("Skipped[%d] = %q, want %s.json rejected with %q", i, rep.Skipped[i], id, want)
		}
		if got, err := os.ReadFile(filepath.Join(dir, id+".json")); err != nil || string(got) != string(damaged[id].data) {
			t.Errorf("%s.json was not kept as it was (err %v)", id, err)
		}
		_, err := svc.StartSearch(SearchRequest{ResumeFrom: id})
		if KindOf(err) != KindConflict || !errors.Is(err, want) {
			t.Errorf("hand resume of %s: %v (kind %s), want a conflict wrapping %q", id, err, KindOf(err), want)
		}
	}

	clean := New(Config{})
	uploadCoupled(t, clean, 8, 4)
	cst, err := clean.StartSearch(bigSearchReq())
	if err != nil {
		t.Fatal(err)
	}
	want := waitSearch(t, clean, cst.ID)
	fin := waitSearch(t, svc, st1.ID)
	if fin.State != SearchDone || fin.Result == nil || want.Result == nil || fin.Result.Value != want.Result.Value {
		t.Fatalf("resumed job: %s (%s) %+v, want the clean run's %+v", fin.State, fin.Error, fin.Result, want.Result)
	}
}

func TestSearchResumeConflicts(t *testing.T) {
	gate := newCkptGate()
	svc := New(Config{
		SearchCheckpointDir: t.TempDir(),
		Seams:               &Seams{BeforeCheckpoint: gate.seam},
	})
	uploadCoupled(t, svc, 8, 4)

	st, err := svc.StartSearch(everyNode(bigSearchReq()))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered
	// Resuming a still-running job is a conflict.
	if _, err := svc.StartSearch(SearchRequest{ResumeFrom: st.ID}); KindOf(err) != KindConflict {
		t.Fatalf("resume of running job: %v", err)
	}
	close(gate.release)
	if fin := waitSearch(t, svc, st.ID); fin.State != SearchDone {
		t.Fatalf("job: %s (%s)", fin.State, fin.Error)
	}
	// Resuming a completed job is a conflict too: there is nothing left to
	// search, and silently re-running would hide a client bug.
	if _, err := svc.StartSearch(SearchRequest{ResumeFrom: st.ID}); KindOf(err) != KindConflict {
		t.Fatalf("resume of done job: %v", err)
	}
}

func TestSearchOverloadAndDrain(t *testing.T) {
	gate := newCkptGate()
	svc := New(Config{
		MaxSearchJobs:       1,
		QueueWait:           20 * time.Millisecond,
		SearchCheckpointDir: t.TempDir(),
		Seams:               &Seams{BeforeCheckpoint: gate.seam},
	})
	uploadCoupled(t, svc, 8, 4)

	st, err := svc.StartSearch(everyNode(bigSearchReq()))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered

	// One job is running and MaxSearchJobs is 1: shed with a retry hint.
	_, err = svc.StartSearch(smallSearchReq())
	if KindOf(err) != KindOverloaded {
		t.Fatalf("second job: %v, want overloaded", err)
	}
	if RetryAfterOf(err) <= 0 {
		t.Fatalf("overload error carries no Retry-After: %v", err)
	}

	// Close cancels every running job and waits for it, like kpad shutdown.
	drained := make(chan struct{})
	go func() {
		svc.Close()
		close(drained)
	}()
	svc.searchMu.Lock()
	job := svc.searches[st.ID]
	svc.searchMu.Unlock()
	<-job.ctx.Done()
	close(gate.release)
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return")
	}
	fin, err := svc.SearchStatusOf(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != SearchCanceled || fin.Result != nil {
		t.Fatalf("drained job: state=%s result=%v", fin.State, fin.Result)
	}
}

// TestSearchCancelStopsFactEvaluation holds the evaluation of a job's φ
// at the eval seam, cancels the job and releases the seam: φ's evaluation
// runs under the job's context, so it stops at its first poll, counts as
// a cancellation, and the job ends canceled.
func TestSearchCancelStopsFactEvaluation(t *testing.T) {
	held := make(chan struct{}, 1)
	release := make(chan struct{})
	svc := New(Config{Seams: &Seams{BeforeEval: func(formula string) error {
		if formula == "phi" {
			held <- struct{}{}
			<-release
		}
		return nil
	}}})
	uploadCoupled(t, svc, 6, 3)
	st, err := svc.StartSearch(smallSearchReq())
	if err != nil {
		t.Fatal(err)
	}
	<-held
	canceled := make(chan SearchStatus, 1)
	go func() {
		cs, err := svc.CancelSearch(st.ID)
		if err != nil {
			t.Error(err)
		}
		canceled <- cs
	}()
	svc.searchMu.Lock()
	job := svc.searches[st.ID]
	svc.searchMu.Unlock()
	<-job.ctx.Done()
	close(release)
	if cs := <-canceled; cs.State != SearchCanceled || cs.Result != nil {
		t.Fatalf("canceled job: state=%s result=%v, want canceled without a result", cs.State, cs.Result)
	}
	if got := svc.Stats().Resilience.Cancels; got != 1 {
		t.Fatalf("cancels = %d, want 1: φ's evaluation ran to completion", got)
	}
}

// TestSearchesLeaveCheckSlots runs as many big jobs as the default
// MaxSearchJobs allows, each held at its first checkpoint write with the
// default SearchWorkers: they hold one evaluation slot each, and a check
// that misses the cache is admitted at once instead of shed.
func TestSearchesLeaveCheckSlots(t *testing.T) {
	// Until release, each job's workers block in their first writes: the
	// buffer holds one entry per worker, and later writes go unreported.
	entered := make(chan string, 16)
	release := make(chan struct{})
	svc := New(Config{
		QueueWait:           20 * time.Millisecond,
		SearchCheckpointDir: t.TempDir(),
		Seams: &Seams{BeforeCheckpoint: func(op, jobID string) error {
			if op == "write" {
				select {
				case entered <- jobID:
				default:
				}
				<-release
			}
			return nil
		}},
	})
	uploadCoupled(t, svc, 8, 4)
	jobs := svc.cfg.MaxSearchJobs
	for n := 0; n < jobs; n++ {
		if _, err := svc.StartSearch(everyNode(bigSearchReq())); err != nil {
			t.Fatal(err)
		}
	}
	for held := map[string]bool{}; len(held) < jobs; {
		held[<-entered] = true
	}
	if got, want := len(svc.sem), jobs; got != want {
		t.Errorf("%d running jobs hold %d of %d evaluation slots, want %d", jobs, got, cap(svc.sem), want)
	}
	v, err := svc.Check(context.Background(), CheckRequest{System: "coupled", Formula: "!phi"})
	if err != nil {
		t.Errorf("check beside %d running jobs: %v", jobs, err)
	} else if v.Cached {
		t.Errorf("check %+v was served from the cache, want an evaluation", v)
	}

	drained := make(chan struct{})
	go func() {
		svc.Close()
		close(drained)
	}()
	for _, job := range svc.searchesBySeq() {
		<-job.ctx.Done()
	}
	close(release)
	<-drained
	if got := len(svc.sem); got != 0 {
		t.Fatalf("%d evaluation slots still held after the drain", got)
	}
}

// TestSearchFreshIDSkipsLeftoverCheckpoints: a fresh job started before
// ResumeSearches is numbered past the checkpoint a previous process left,
// so it neither takes that job's ID nor, on completion, deletes its file.
func TestSearchFreshIDSkipsLeftoverCheckpoints(t *testing.T) {
	dir := t.TempDir()
	st1 := drainedSearch(t, dir)
	path := filepath.Join(dir, st1.ID+".json")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	svc := New(Config{SearchCheckpointDir: dir})
	uploadCoupled(t, svc, 8, 4)
	st, err := svc.StartSearch(smallSearchReq())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == st1.ID {
		t.Fatalf("fresh job took the ID %s of the checkpoint on disk", st.ID)
	}
	if fin := waitSearch(t, svc, st.ID); fin.State != SearchDone {
		t.Fatalf("fresh job: %s (%s)", fin.State, fin.Error)
	}
	if after, err := os.ReadFile(path); err != nil || string(after) != string(before) {
		t.Fatalf("%s.json changed under a fresh job (err %v)", st1.ID, err)
	}

	rep := svc.ResumeSearches()
	if len(rep.Resumed) != 1 || rep.Resumed[0] != st1.ID {
		t.Fatalf("Resumed = %v, want [%s] (skipped: %v)", rep.Resumed, st1.ID, rep.Skipped)
	}
	if fin := waitSearch(t, svc, st1.ID); fin.State != SearchDone {
		t.Fatalf("resumed job: %s (%s)", fin.State, fin.Error)
	}
}

// TestSearchResumeRetiresSourceCheckpoint cancels a job mid-search and
// resumes it by hand under a new ID: the source checkpoint stays until the
// resumed job's first checkpoint write lands, and once the resumed job is
// done no checkpoint is left for a restarted service to run again.
func TestSearchResumeRetiresSourceCheckpoint(t *testing.T) {
	dir := t.TempDir()
	gates := map[string]*ckptGate{"s1": newCkptGate(), "s2": newCkptGate()}
	svc := New(Config{
		SearchCheckpointDir: dir,
		Seams: &Seams{BeforeCheckpoint: func(op, jobID string) error {
			if g := gates[jobID]; g != nil {
				return g.seam(op, jobID)
			}
			return nil
		}},
	})
	uploadCoupled(t, svc, 8, 4)

	st, err := svc.StartSearch(everyNode(bigSearchReq()))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "s1" {
		t.Fatalf("first job ID = %s, want s1", st.ID)
	}
	<-gates["s1"].entered
	canceled := make(chan struct{})
	go func() {
		svc.CancelSearch(st.ID)
		close(canceled)
	}()
	svc.searchMu.Lock()
	job := svc.searches[st.ID]
	svc.searchMu.Unlock()
	<-job.ctx.Done()
	close(gates["s1"].release)
	<-canceled
	source := filepath.Join(dir, st.ID+".json")
	if _, err := os.Stat(source); err != nil {
		t.Fatalf("canceled job left no checkpoint: %v", err)
	}

	res, err := svc.StartSearch(SearchRequest{ResumeFrom: st.ID})
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "s2" {
		t.Fatalf("resumed job ID = %s, want s2", res.ID)
	}
	<-gates["s2"].entered
	if _, err := os.Stat(source); err != nil {
		t.Fatalf("source checkpoint removed before the resumed job wrote its own: %v", err)
	}
	close(gates["s2"].release)
	if fin := waitSearch(t, svc, res.ID); fin.State != SearchDone {
		t.Fatalf("resumed job: %s (%s)", fin.State, fin.Error)
	}
	for _, id := range []string{st.ID, res.ID} {
		if _, err := os.Stat(filepath.Join(dir, id+".json")); !os.IsNotExist(err) {
			t.Errorf("%s.json left behind after the resumed job finished: %v", id, err)
		}
	}

	svc2 := New(Config{SearchCheckpointDir: dir})
	uploadCoupled(t, svc2, 8, 4)
	if rep := svc2.ResumeSearches(); len(rep.Resumed) != 0 || len(rep.Skipped) != 0 {
		t.Fatalf("restart resumed %v (skipped %v), want nothing", rep.Resumed, rep.Skipped)
	}
}

// TestSearchCloseDrainsAndRefuses: Close cancels a running job and waits
// until it has written its final checkpoint, and refuses jobs started after
// it, like a full job cap.
func TestSearchCloseDrainsAndRefuses(t *testing.T) {
	gate := newCkptGate()
	dir := t.TempDir()
	svc := New(Config{
		SearchCheckpointDir: dir,
		Seams:               &Seams{BeforeCheckpoint: gate.seam},
	})
	uploadCoupled(t, svc, 8, 4)
	st, err := svc.StartSearch(everyNode(bigSearchReq()))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.entered

	closed := make(chan error, 1)
	go func() { closed <- svc.Close() }()
	svc.searchMu.Lock()
	job := svc.searches[st.ID]
	svc.searchMu.Unlock()
	select {
	case <-job.ctx.Done():
	case <-closed:
		t.Fatal("Close returned without canceling the running job")
	}
	close(gate.release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	fin, err := svc.SearchStatusOf(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != SearchCanceled || fin.Result != nil {
		t.Fatalf("job after Close: state=%s result=%v, want canceled", fin.State, fin.Result)
	}
	if _, err := os.Stat(filepath.Join(dir, st.ID+".json")); err != nil {
		t.Fatalf("no final checkpoint after Close: %v", err)
	}

	_, err = svc.StartSearch(smallSearchReq())
	if KindOf(err) != KindOverloaded || RetryAfterOf(err) <= 0 {
		t.Fatalf("search after Close: %v, want overloaded with a retry hint", err)
	}
	if n := len(svc.Searches()); n != 1 {
		t.Fatalf("%d jobs registered, want only the canceled one", n)
	}
	if got := len(svc.sem); got != 0 {
		t.Fatalf("%d evaluation slots held after Close", got)
	}
}

// TestSearchFactPanicPoisonsWorker injects a panic into the evaluation of
// a search job's φ: the job must fail with a typed KindPanic error, and
// the next check on the same model entry must make an evaluator of its own
// and get a correct verdict.
func TestSearchFactPanicPoisonsWorker(t *testing.T) {
	svc := New(Config{Seams: &Seams{BeforeEval: func(formula string) error {
		if formula == "phi" {
			panic("injected panic evaluating the search fact")
		}
		return nil
	}}})
	uploadCoupled(t, svc, 6, 3)
	st, err := svc.StartSearch(smallSearchReq())
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitSearch(t, svc, st.ID); fin.State != SearchFailed {
		t.Fatalf("state = %s (err=%q), want failed", fin.State, fin.Error)
	}
	svc.searchMu.Lock()
	job := svc.searches[st.ID]
	svc.searchMu.Unlock()
	job.mu.Lock()
	jobErr := job.err
	job.mu.Unlock()
	if KindOf(jobErr) != KindPanic {
		t.Fatalf("job error = %v (kind %s), want panic", jobErr, KindOf(jobErr))
	}

	req := CheckRequest{System: "coupled", Formula: "!phi"}
	got, err := svc.Check(context.Background(), req)
	if err != nil {
		t.Fatalf("Check after the poisoned search: %v", err)
	}
	oracle := New(Config{})
	uploadCoupled(t, oracle, 6, 3)
	want, err := oracle.Check(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("verdict after the poisoned search:\n got %+v\nwant %+v", got, want)
	}
	stats := svc.Stats()
	if len(stats.Pools) != 1 {
		t.Fatalf("have %d pools, want the one post pool: %+v", len(stats.Pools), stats.Pools)
	}
	if p := stats.Pools[0]; p.Created != 2 {
		t.Fatalf("pool after the poisoned search: %+v, want 2 created", p)
	}
	if stats.Resilience.Panics != 1 {
		t.Fatalf("panics = %d, want 1", stats.Resilience.Panics)
	}
}
