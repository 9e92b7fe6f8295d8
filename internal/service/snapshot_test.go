package service

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"kpa/internal/snapshot"
)

// snapConfig returns a config with durability into dir and a cadence
// long enough that only explicit SnapshotNow calls write.
func snapConfig(dir string) Config {
	return Config{SnapshotDir: dir, SnapshotEvery: time.Hour}
}

// warmService loads a registry system and an upload (aliased twice),
// runs a fixed query mix, and returns the verdicts by request.
func warmService(t *testing.T, svc *Service) map[CheckRequest]Verdict {
	t.Helper()
	ctx := context.Background()
	if _, err := svc.Upload("mycoin", introDoc(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Upload("mycoin-alias", introDoc(t)); err != nil {
		t.Fatal(err)
	}
	reqs := []CheckRequest{
		{System: "introcoin", Formula: "K1^1/2 heads"},
		{System: "introcoin", Formula: "F (K1^1/2 heads)"},
		{System: "die", Assign: "fut", Formula: "Pr1(face6) >= 1/6"},
		{System: "mycoin", Formula: "K1 heads"},
	}
	out := make(map[CheckRequest]Verdict, len(reqs))
	for _, r := range reqs {
		v, err := svc.Check(ctx, r)
		if err != nil {
			t.Fatalf("Check(%+v): %v", r, err)
		}
		out[r] = v
	}
	return out
}

func TestSnapshotWarmRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	svc1 := New(snapConfig(dir))
	want := warmService(t, svc1)
	if n, err := svc1.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	} else if n != 2 {
		t.Fatalf("SnapshotNow wrote %d files, want 2 (introcoin+upload share a hash, die)", n)
	}
	if err := svc1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	svc2 := New(snapConfig(dir))
	defer svc2.Close()
	rep, err := svc2.RestoreSnapshots(context.Background())
	if err != nil {
		t.Fatalf("RestoreSnapshots: %v", err)
	}
	if rep.Sessions != 2 {
		t.Fatalf("restored %d sessions, want 2 (corrupt: %v)", rep.Sessions, rep.Corrupt)
	}
	if len(rep.Corrupt) != 0 {
		t.Fatalf("unexpected corrupt files: %v", rep.Corrupt)
	}
	if rep.Verdicts == 0 || rep.Bytes == 0 {
		t.Fatalf("restore adopted nothing: %+v", rep)
	}

	// The upload aliases must answer without re-uploading anything.
	names := make(map[string]bool)
	for _, info := range svc2.Systems() {
		names[info.Name] = true
	}
	for _, n := range []string{"mycoin", "mycoin-alias", "introcoin", "die"} {
		if !names[n] {
			t.Fatalf("restored store is missing %q (have %v)", n, names)
		}
	}

	// Every original query must be answered identically — and from the
	// cache, on the very first request after restart.
	for r, w := range want {
		v, err := svc2.Check(context.Background(), r)
		if err != nil {
			t.Fatalf("restored Check(%+v): %v", r, err)
		}
		if !v.Cached {
			t.Fatalf("first post-restore Check(%+v) missed the cache", r)
		}
		v.Cached = w.Cached // cache provenance necessarily differs
		if !reflect.DeepEqual(v, w) {
			t.Fatalf("restored verdict differs:\n got %+v\nwant %+v", v, w)
		}
	}
	if st := svc2.Stats().Snapshot; st.RestoredSessions != 2 || st.RestoredVerdicts == 0 || !st.Enabled {
		t.Fatalf("snapshot stats after restore: %+v", st)
	}
	// Verdicts must be counterexample-identical too; the map compare
	// above used Verdict's comparable fields only if no slices — guard
	// against that silently passing by checking one known slice.
	v, err := svc2.Check(context.Background(), CheckRequest{System: "introcoin", Formula: "K1^1/2 heads"})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.CounterExamples) == 0 {
		t.Fatal("restored verdict lost its counterexamples")
	}
}

func TestSnapshotDirtySkip(t *testing.T) {
	svc := New(snapConfig(t.TempDir()))
	defer svc.Close()
	warmService(t, svc)
	if n, err := svc.SnapshotNow(); err != nil || n != 2 {
		t.Fatalf("first SnapshotNow: n=%d err=%v", n, err)
	}
	if n, err := svc.SnapshotNow(); err != nil || n != 0 {
		t.Fatalf("second SnapshotNow should skip everything: n=%d err=%v", n, err)
	}
	if st := svc.Stats().Snapshot; st.Skips < 2 || st.Writes != 2 {
		t.Fatalf("skip accounting: %+v", st)
	}
	// New activity re-dirties exactly the touched system.
	if _, err := svc.Check(context.Background(), CheckRequest{System: "die", Formula: "F face6"}); err != nil {
		t.Fatal(err)
	}
	if n, err := svc.SnapshotNow(); err != nil || n != 1 {
		t.Fatalf("post-activity SnapshotNow: n=%d err=%v, want 1 write", n, err)
	}
}

func TestSnapshotCloseFlushes(t *testing.T) {
	dir := t.TempDir()
	svc := New(snapConfig(dir))
	warmService(t, svc)
	// No explicit SnapshotNow: Close must flush.
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"+snapshot.Ext))
	if err != nil || len(files) != 2 {
		t.Fatalf("Close flushed %d files (err %v), want 2", len(files), err)
	}
	// Idempotent.
	if err := svc.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestRestoreCorruptFileFallsBackCold(t *testing.T) {
	dir := t.TempDir()
	svc1 := New(snapConfig(dir))
	warmService(t, svc1)
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt one file (truncate), add one alien file.
	files, _ := filepath.Glob(filepath.Join(dir, "*"+snapshot.Ext))
	if len(files) != 2 {
		t.Fatalf("have %d snapshot files", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "alien"+snapshot.Ext), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	svc2 := New(snapConfig(dir))
	defer svc2.Close()
	rep, err := svc2.RestoreSnapshots(context.Background())
	if err != nil {
		t.Fatalf("RestoreSnapshots must not fail the boot: %v", err)
	}
	if rep.Sessions != 1 {
		t.Fatalf("restored %d sessions, want 1", rep.Sessions)
	}
	if len(rep.Corrupt) != 2 {
		t.Fatalf("corrupt list: %v, want 2 entries", rep.Corrupt)
	}
	for _, c := range rep.Corrupt {
		if !strings.Contains(c, "snapshot:") {
			t.Fatalf("corrupt entry %q does not carry a typed snapshot error", c)
		}
	}
	if st := svc2.Stats().Snapshot; st.CorruptFiles != 2 || st.LastError == "" {
		t.Fatalf("corrupt accounting: %+v", st)
	}
	// The corrupted system still loads cold on demand.
	if _, err := svc2.Check(context.Background(), CheckRequest{System: "introcoin", Formula: "K1^1/2 heads"}); err != nil {
		t.Fatalf("cold fallback Check: %v", err)
	}
}

func TestRestoreAbortsOnCancel(t *testing.T) {
	dir := t.TempDir()
	svc1 := New(snapConfig(dir))
	warmService(t, svc1)
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}

	svc2 := New(snapConfig(dir))
	defer svc2.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc2.RestoreSnapshots(ctx); err == nil {
		t.Fatal("cancelled restore reported success")
	}
	if got := len(svc2.Systems()); got != 0 {
		t.Fatalf("cancelled restore published %d sessions", got)
	}
}

func TestSnapshotDisabledIsNoop(t *testing.T) {
	svc := New(Config{})
	if n, err := svc.SnapshotNow(); n != 0 || err != nil {
		t.Fatalf("SnapshotNow without dir: n=%d err=%v", n, err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close without dir: %v", err)
	}
	rep, err := svc.RestoreSnapshots(context.Background())
	if err != nil || rep.Sessions != 0 {
		t.Fatalf("RestoreSnapshots without dir: %+v err=%v", rep, err)
	}
	if st := svc.Stats().Snapshot; st.Enabled {
		t.Fatal("snapshot stats report enabled without a dir")
	}
}

// TestSnapshotBackgroundWriter pins the ticker path: a short cadence
// produces files without any explicit SnapshotNow.
func TestSnapshotBackgroundWriter(t *testing.T) {
	dir := t.TempDir()
	svc := New(Config{SnapshotDir: dir, SnapshotEvery: 10 * time.Millisecond})
	defer svc.Close()
	warmService(t, svc)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		files, _ := filepath.Glob(filepath.Join(dir, "*"+snapshot.Ext))
		if len(files) == 2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("background writer produced no complete snapshot set")
}

// TestRestoreRejectsVersion1Snapshot: files in the previous format
// version (here current files re-stamped as version 1, footer
// recomputed) are counted corrupt and never published, and the systems
// they describe then load cold on demand with verdicts byte-identical to
// an uninterrupted oracle.
func TestRestoreRejectsVersion1Snapshot(t *testing.T) {
	queries := chaosReplayQueries()
	oracle := chaosOracle(t, queries)
	dir := t.TempDir()
	svc1 := New(snapConfig(dir))
	if _, err := svc1.Upload("mycoin", introDoc(t)); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, err := svc1.Check(context.Background(), q); err != nil {
			t.Fatalf("warm-up Check(%+v): %v", q, err)
		}
	}
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"+snapshot.Ext))
	if len(files) == 0 {
		t.Fatal("no snapshot files written")
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(data[6:8], 1)
		sum := crc32.Checksum(data[:len(data)-4], crc32.MakeTable(crc32.Castagnoli))
		binary.LittleEndian.PutUint32(data[len(data)-4:], sum)
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	svc2 := New(snapConfig(dir))
	defer svc2.Close()
	rep, err := svc2.RestoreSnapshots(context.Background())
	if err != nil {
		t.Fatalf("RestoreSnapshots must not fail the boot: %v", err)
	}
	if rep.Sessions != 0 || len(rep.Corrupt) != len(files) {
		t.Fatalf("restore report %+v, want 0 sessions and %d rejected files", rep, len(files))
	}
	for _, c := range rep.Corrupt {
		if !strings.Contains(c, snapshot.ErrVersion.Error()) {
			t.Fatalf("rejected file %q does not carry ErrVersion", c)
		}
	}
	if st := svc2.Stats().Snapshot; st.CorruptFiles != uint64(len(files)) || st.RestoredSessions != 0 {
		t.Fatalf("snapshot stats: %+v", st)
	}
	if n := len(svc2.Systems()); n != 0 {
		t.Fatalf("rejected snapshots published %d systems", n)
	}
	if _, err := svc2.Upload("mycoin", introDoc(t)); err != nil {
		t.Fatal(err)
	}
	chaosReplayAndCompare(t, svc2, queries, oracle)
}
