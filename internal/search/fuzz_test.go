package search_test

import (
	"reflect"
	"testing"

	"kpa/internal/search"
)

// FuzzDecodeCheckpoint feeds the checkpoint decoder arbitrary documents
// of up to 16 KiB. DecodeCheckpoint must never panic, and any checkpoint
// it accepts must survive a round trip: Encode then DecodeCheckpoint
// yields a reflect.DeepEqual checkpoint. Plain `go test` replays the
// seeds (the codec tests' documents and checkpoints of a real run);
// `make fuzz` explores further.
func FuzzDecodeCheckpoint(f *testing.F) {
	codec := &search.Checkpoint{
		Version:       search.CheckpointVersion,
		Fingerprint:   "abc123",
		Frontier:      [][]byte{{0, 1}, {1}, {}},
		Incumbent:     &search.Incumbent{Value: "-5/7", Choices: []byte{0, 1, 1}},
		NodesExpanded: 42,
		NodesPruned:   17,
		LeafEvals:     9,
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
		`{"version":2,"fingerprint":"x","frontier":[]}`,
		`{"version":1,"frontier":[]}`,
		`{"version":1,"fingerprint":"x","incumbent":{"value":"nope","choices":"AA=="}}`,
	} {
		f.Add([]byte(doc))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 16<<10 {
			return
		}
		c, err := search.DecodeCheckpoint(data)
		if err != nil {
			return
		}
		out, err := c.Encode()
		if err != nil {
			t.Fatalf("Encode of a decoded checkpoint: %v", err)
		}
		back, err := search.DecodeCheckpoint(out)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(back, c) {
			t.Fatalf("round trip changed the checkpoint:\n got %+v\nwant %+v", back, c)
		}
	})
}
