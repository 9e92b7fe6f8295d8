package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// sampleSize is the encoded size of sampleSession. It is the size of the
// version-1 sample, so the truncation and bit-flip sweeps in
// corrupt_test.go cut and flip the same offsets across the format change.
const sampleSize = 17759

// sampleSession builds an upload session exercising every field of the
// wire model but Registry (TestRoundTripMinimal covers that one), sized
// well past 4KiB so the truncation sweep in corrupt_test.go has many
// boundaries to cut at. As in a real upload's snapshot, the document is
// the bulk of the payload.
func sampleSession() *Session {
	s := &Session{
		Hash:   "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef",
		Source: "upload",
		Names:  []string{"mycoin", "warm-alias"},
		Verdicts: []Verdict{
			{
				Assign: "post", Formula: "(K 1 (prop heads))", Valid: false,
				HoldsAt: 12, Points: 24, CounterTotal: 12,
				CounterExamples: []string{"t0/r1@0", "t0/r1@1"},
			},
			{Assign: "fut", Formula: "(pr>= 1 1/2 (prop heads))", Valid: true, HoldsAt: 24, Points: 24},
		},
	}
	// Fill the document up to sampleSize: its length varint takes 3 bytes
	// where the empty document's took 1.
	const pattern = `{"agents":2,"trees":[]} `
	s.Doc = make([]byte, sampleSize-len(Encode(s))-2)
	for i := range s.Doc {
		s.Doc[i] = pattern[i%len(pattern)]
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	want := sampleSession()
	data := Encode(want)
	if len(data) != sampleSize {
		t.Fatalf("sample snapshot is %d bytes, want %d", len(data), sampleSize)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestRoundTripMinimal(t *testing.T) {
	want := &Session{
		Hash:     "deadbeef",
		Source:   "registry",
		Names:    []string{"introcoin"},
		Registry: "introcoin",
	}
	got, err := Decode(Encode(want))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestEncodeDeterministic pins that equal sessions encode to identical
// bytes: the chaos suite compares restarted state against an oracle
// byte-for-byte, which is only meaningful if encoding is a function.
func TestEncodeDeterministic(t *testing.T) {
	a := Encode(sampleSession())
	b := Encode(sampleSession())
	if !bytes.Equal(a, b) {
		t.Fatal("Encode is not deterministic for equal sessions")
	}
}

func TestFilename(t *testing.T) {
	if got := Filename("abc123"); got != "abc123.kpasnap" {
		t.Fatalf("Filename = %q", got)
	}
}

// patchCRC recomputes the footer over a mutated file so structural tests
// reach the payload parser instead of tripping the checksum first.
func patchCRC(data []byte) []byte {
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.Checksum(data[:len(data)-4], crcTable))
	return data
}
