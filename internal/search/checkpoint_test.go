package search_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"kpa/internal/frame"
	"kpa/internal/search"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// reframe recomputes a framed input's payload length and CRC footer, so a
// change to the document reaches the JSON parser instead of stopping at
// the checksum.
func reframe(data []byte) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(out[8:16], uint64(len(out)-16-4))
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.Checksum(out[:len(out)-4], castagnoli))
	return out
}

// frameDoc wraps a JSON document in the checkpoint frame under the given
// version, as Encode does under CheckpointVersion.
func frameDoc(doc string, version uint16) []byte {
	out := binary.LittleEndian.AppendUint16([]byte("KPCKPT"), version)
	out = append(out, make([]byte, 8)...)
	out = append(out, doc...)
	return reframe(append(out, 0, 0, 0, 0))
}

// sampleCheckpoint encodes a mid-run checkpoint of a real search, with a
// frontier, an incumbent and a request.
func sampleCheckpoint(t *testing.T) []byte {
	t.Helper()
	var mid []search.Checkpoint
	eng := search.New(coupledProblem(t, 7, 2, search.ModeAlly), search.Config{
		Workers:         1,
		CheckpointEvery: 1,
		OnCheckpoint: func(c search.Checkpoint) error {
			mid = append(mid, c)
			return nil
		},
	})
	if _, err := eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	c := mid[len(mid)/2]
	if len(c.Frontier) == 0 || c.Incumbent == nil {
		t.Fatalf("sample checkpoint has %d frontier nodes, incumbent %v", len(c.Frontier), c.Incumbent)
	}
	c.Request = []byte(`{"system": "coupled", "agent": 1}`)
	data, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := search.DecodeCheckpoint(data); err != nil {
		t.Fatalf("clean sample does not decode: %v", err)
	}
	return data
}

// typed reports whether err wraps one of the frame package's sentinels.
func typed(err error) bool {
	for _, s := range []error{frame.ErrBadMagic, frame.ErrVersion, frame.ErrTruncated, frame.ErrChecksum, frame.ErrCorrupt} {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// TestCheckpointDecodeTruncated cuts a checkpoint at every length, and
// appends a byte: a file torn mid-write, or grown past its header, is
// ErrTruncated, never a shorter checkpoint.
func TestCheckpointDecodeTruncated(t *testing.T) {
	clean := sampleCheckpoint(t)
	for at := 0; at < len(clean); at++ {
		c, err := search.DecodeCheckpoint(clean[:at])
		if c != nil || !errors.Is(err, frame.ErrTruncated) {
			t.Fatalf("cut at %d of %d: checkpoint %v, err %v; want ErrTruncated", at, len(clean), c != nil, err)
		}
	}
	if _, err := search.DecodeCheckpoint(append(clean[:len(clean):len(clean)], 0xEE)); !errors.Is(err, frame.ErrTruncated) {
		t.Fatalf("trailing byte: got %v, want ErrTruncated", err)
	}
}

// TestCheckpointDecodeBitFlips flips every bit of a checkpoint, one at a
// time. Each flip is a typed error: a frontier choice flipped to another
// in-range value must not resume, so an unframed document's checks
// (fingerprint, prefix lengths, choice ranges) are not enough.
func TestCheckpointDecodeBitFlips(t *testing.T) {
	clean := sampleCheckpoint(t)
	data := make([]byte, len(clean))
	for off := range clean {
		for bit := 0; bit < 8; bit++ {
			copy(data, clean)
			data[off] ^= 1 << bit
			c, err := search.DecodeCheckpoint(data)
			if c != nil || !typed(err) {
				t.Fatalf("flip at %d/%d: checkpoint %v, err %v; want a typed error", off, bit, c != nil, err)
			}
		}
	}
}

// TestCheckpointDecodeMagicAndVersion: a file of another format, an
// unframed checkpoint of an earlier build, and the checkpoint re-stamped
// with a neighbouring version are each refused by type.
func TestCheckpointDecodeMagicAndVersion(t *testing.T) {
	clean := sampleCheckpoint(t)
	doc := string(clean[16 : len(clean)-4])
	for name, c := range map[string]struct {
		data []byte
		want error
	}{
		"snapshot magic": {reframe(append([]byte("KPSNAP"), clean[6:]...)), frame.ErrBadMagic},
		"unframed":       {[]byte(doc), frame.ErrBadMagic},
		"older version":  {frameDoc(doc, search.CheckpointVersion-1), frame.ErrVersion},
		"newer version":  {frameDoc(doc, search.CheckpointVersion+1), frame.ErrVersion},
	} {
		if got, err := search.DecodeCheckpoint(c.data); got != nil || !errors.Is(err, c.want) {
			t.Errorf("%s: checkpoint %v, err %v; want %v", name, got != nil, err, c.want)
		}
	}
	if _, err := search.DecodeCheckpoint(frameDoc(doc, search.CheckpointVersion)); err != nil {
		t.Fatalf("re-framed clean document: %v", err)
	}
}
