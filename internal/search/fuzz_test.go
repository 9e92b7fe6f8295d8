package search_test

import (
	"reflect"
	"testing"

	"kpa/internal/search"
)

// FuzzDecodeCheckpoint feeds the checkpoint decoder arbitrary files of up
// to 16 KiB. DecodeCheckpoint must never panic, and any checkpoint it
// accepts must survive a round trip: Encode then DecodeCheckpoint yields a
// reflect.DeepEqual checkpoint. Each input is also tried with its payload
// length and CRC recomputed, so mutations of the JSON document reach the
// JSON parser instead of stopping at the checksum. Plain `go test` replays
// the seeds (the codec tests' framed documents and checkpoints of a real
// run); `make fuzz` explores further.
func FuzzDecodeCheckpoint(f *testing.F) {
	codec := &search.Checkpoint{
		Fingerprint:   "abc123",
		Frontier:      [][]byte{{0, 1}, {1}, {}},
		Incumbent:     &search.Incumbent{Value: "-5/7", Choices: []byte{0, 1, 1}},
		NodesExpanded: 42,
		NodesPruned:   17,
		LeafEvals:     9,
		Request:       []byte(`{"job": [ 1 ]}`),
	}
	seeds := []*search.Checkpoint{codec}
	var mid []*search.Checkpoint
	eng := search.New(coupledProblem(f, 7, 4, search.ModeAdversary), search.Config{
		Workers:         1,
		CheckpointEvery: 1,
		OnCheckpoint: func(c search.Checkpoint) error {
			mid = append(mid, &c)
			return nil
		},
	})
	if _, err := eng.Run(nil); err != nil {
		f.Fatal(err)
	}
	if len(mid) == 0 {
		f.Fatal("the run emitted no checkpoint")
	}
	final := eng.Checkpoint()
	seeds = append(seeds, mid[0], mid[len(mid)-1], &final)
	for _, c := range seeds {
		data, err := c.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, doc := range []string{
		`{`,
		`{"frontier":[]}`,
		`{"fingerprint":"x","incumbent":{"value":"nope","choices":"AA=="}}`,
	} {
		f.Add(frameDoc(doc, search.CheckpointVersion))
	}
	f.Add(frameDoc(`{"fingerprint":"x","frontier":[]}`, search.CheckpointVersion+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 16<<10 {
			return
		}
		checkCheckpointRoundTrip(t, data)
		if len(data) >= 16+4 {
			checkCheckpointRoundTrip(t, reframe(data))
		}
	})
}

// checkCheckpointRoundTrip decodes data and, if it is accepted, requires
// the re-encoded checkpoint to decode to an identical one.
func checkCheckpointRoundTrip(t *testing.T, data []byte) {
	c, err := search.DecodeCheckpoint(data)
	if err != nil {
		if c != nil {
			t.Fatalf("DecodeCheckpoint returned a checkpoint with error %v", err)
		}
		return
	}
	out, err := c.Encode()
	if err != nil {
		t.Fatalf("Encode of a decoded checkpoint: %v", err)
	}
	back, err := search.DecodeCheckpoint(out)
	if err != nil {
		t.Fatalf("re-encoded checkpoint does not decode: %v\n%q", err, out)
	}
	if !reflect.DeepEqual(back, c) {
		t.Fatalf("round trip changed the checkpoint:\n got %+v\nwant %+v", back, c)
	}
}
