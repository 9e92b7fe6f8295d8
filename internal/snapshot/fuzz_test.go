package snapshot

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzDecode feeds the snapshot decoder arbitrary files of up to 8 KiB.
// Decode must never panic, and any session it accepts must survive a
// round trip: Encode then Decode yields a reflect.DeepEqual session. Each
// input is also tried with its header length and footer CRC recomputed,
// so mutations of the payload reach the payload parser instead of
// stopping at the checksum. Plain `go test` replays the seeds: the
// round-trip sessions (the sample's document cut to 256 bytes, which
// keeps minimizing the inputs the fuzzer finds quick) and the
// corrupt-test files made from them; `make fuzz` explores further.
func FuzzDecode(f *testing.F) {
	sample := sampleSession()
	sample.Doc = sample.Doc[:256]
	minimal := &Session{Hash: "deadbeef", Source: "registry", Names: []string{"introcoin"}, Registry: "introcoin"}
	withVerdict := &Session{Hash: "h", Source: "registry", Registry: "r",
		Verdicts: []Verdict{{Assign: "post", Formula: "f", Valid: true}}}
	for _, s := range []*Session{sample, minimal, withVerdict, {Hash: "h", Source: "registry", Registry: "r"}} {
		f.Add(Encode(s))
	}
	clean := Encode(sample)
	f.Add(clean[:len(clean)/2])                        // truncated
	f.Add(append(append([]byte(nil), clean...), 0xEE)) // trailing garbage
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)/2] ^= 1
	f.Add(flipped)
	bumped := append([]byte(nil), clean...)
	binary.LittleEndian.PutUint16(bumped[6:8], Version-1)
	f.Add(patchCRC(bumped))
	f.Add([]byte("not a snapshot"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8<<10 {
			return
		}
		checkRoundTrip(t, data)
		if len(data) >= 16+4 {
			framed := append([]byte(nil), data...)
			binary.LittleEndian.PutUint64(framed[8:16], uint64(len(framed)-16-4))
			checkRoundTrip(t, patchCRC(framed))
		}
	})
}

// checkRoundTrip decodes data and, if it is accepted, requires the
// re-encoded session to decode to an identical one.
func checkRoundTrip(t *testing.T, data []byte) {
	s, err := Decode(data)
	if err != nil {
		if s != nil {
			t.Fatalf("Decode returned a session with error %v", err)
		}
		return
	}
	back, err := Decode(Encode(s))
	if err != nil {
		t.Fatalf("re-encoded session does not decode: %v", err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Fatalf("round trip changed the session:\n got %+v\nwant %+v", back, s)
	}
}
