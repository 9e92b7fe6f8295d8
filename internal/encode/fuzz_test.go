package encode

import (
	"testing"

	"kpa/internal/canon"
)

// FuzzDecode feeds the upload decoder arbitrary documents of up to 8 KiB
// and checks it against referenceDecode, the reflective decoder it
// replaced:
//   - a document the reference rejects, Decode rejects;
//   - a document Decode accepts, the reference accepts with the same
//     canonical hash, agent count, proposition names and proposition
//     truth at every point;
//   - a document only the reference accepts has a repeated key.
//
// Decode must never panic, and any system it accepts must survive a round
// trip: Marshal(Encode(sys)) decodes again to a system with the same
// canonical hash. Plain `go test` replays the seeds (every document in
// encode_test.go); `make fuzz` explores further.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(coinDoc))
	f.Add([]byte(propMatcherDoc))
	for _, tc := range decodeErrorDocs {
		f.Add([]byte(tc.doc))
	}
	for _, tc := range decodeErrorMessageDocs {
		f.Add([]byte(tc.doc))
	}
	for _, tc := range acceptanceDocs {
		f.Add([]byte(tc.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8<<10 {
			return
		}
		sys, props, err := Decode(data)
		refSys, refProps, refErr := referenceDecode(data)
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("Decode accepted a document the reference rejects: %v", refErr)
		case err == nil:
			if diff := sameDecoding(sys, props, refSys, refProps, canon.Hash); diff != "" {
				t.Fatalf("Decode and the reference disagree: %s", diff)
			}
		case refErr == nil:
			if duplicateKey(data) == "" {
				t.Fatalf("Decode rejected a document the reference accepts, with no repeated key: %v", err)
			}
			return
		default:
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
