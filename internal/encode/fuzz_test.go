package encode

import (
	"testing"

	"kpa/internal/canon"
)

// FuzzDecode feeds the upload decoder arbitrary documents of up to 8 KiB.
// Decode must never panic, and any system it accepts must survive a
// round trip: Marshal(Encode(sys)) decodes again to a system with the
// same canonical hash. Plain `go test` replays the seeds (every document
// in encode_test.go); `make fuzz` explores further.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(coinDoc))
	f.Add([]byte(propMatcherDoc))
	for _, tc := range decodeErrorDocs {
		f.Add([]byte(tc.doc))
	}
	for _, tc := range decodeErrorMessageDocs {
		f.Add([]byte(tc.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8<<10 {
			return
		}
		sys, _, err := Decode(data)
		if err != nil {
			return
		}
		out, err := Marshal(Encode(sys))
		if err != nil {
			t.Fatalf("Marshal of a decoded system: %v", err)
		}
		back, _, err := Decode(out)
		if err != nil {
			t.Fatalf("re-encoded system does not decode: %v\n%s", err, out)
		}
		if got, want := canon.Hash(back), canon.Hash(sys); got != want {
			t.Fatalf("round trip changed the canonical hash: %s, want %s\n%s", got[:12], want[:12], out)
		}
	})
}
