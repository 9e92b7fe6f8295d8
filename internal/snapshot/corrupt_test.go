package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// TestDecodeTruncated cuts the sample snapshot at every 1KiB boundary
// (and a few pathological prefixes) and requires a typed error — a file
// cut mid-write must read as "no snapshot", never as a shorter session.
func TestDecodeTruncated(t *testing.T) {
	data := Encode(sampleSession())
	cuts := []int{0, 1, 5, 6, 7, 15, 16, 19}
	for at := 1024; at < len(data); at += 1024 {
		cuts = append(cuts, at)
	}
	cuts = append(cuts, len(data)-1)
	for _, at := range cuts {
		t.Run(fmt.Sprintf("at%d", at), func(t *testing.T) {
			s, err := Decode(data[:at])
			if s != nil {
				t.Fatalf("truncation at %d returned a session", at)
			}
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("truncation at %d: got %v, want ErrTruncated", at, err)
			}
		})
	}
}

// TestDecodeTrailingGarbage: extra bytes after the footer make the
// header's payload length disagree with the file size.
func TestDecodeTrailingGarbage(t *testing.T) {
	data := append(Encode(sampleSession()), 0xEE)
	if _, err := Decode(data); !errors.Is(err, ErrTruncated) {
		t.Fatalf("got %v, want ErrTruncated", err)
	}
}

// TestDecodeBitFlips flips a single bit in the header, early payload,
// deep payload, and footer. Every flip must surface as a typed error:
// usually ErrChecksum, but header flips may legitimately classify as
// bad magic, version skew, or a length mismatch first — any typed
// rejection is correct, silent acceptance is the bug.
func TestDecodeBitFlips(t *testing.T) {
	clean := Encode(sampleSession())
	offsets := []int{
		0, 3, // magic
		6,      // version
		9,      // payload length
		16, 40, // payload head
		len(clean) / 2,                 // payload middle
		len(clean) - 5,                 // payload tail
		len(clean) - 4, len(clean) - 1, // footer CRC
	}
	for _, off := range offsets {
		for bit := 0; bit < 8; bit++ {
			t.Run(fmt.Sprintf("off%d_bit%d", off, bit), func(t *testing.T) {
				data := make([]byte, len(clean))
				copy(data, clean)
				data[off] ^= 1 << bit
				s, err := Decode(data)
				if s != nil {
					t.Fatalf("bit flip at %d/%d returned a session", off, bit)
				}
				typed := errors.Is(err, ErrChecksum) || errors.Is(err, ErrBadMagic) ||
					errors.Is(err, ErrVersion) || errors.Is(err, ErrTruncated) ||
					errors.Is(err, ErrCorrupt)
				if !typed {
					t.Fatalf("bit flip at %d/%d: untyped error %v", off, bit, err)
				}
			})
		}
	}
}

// TestDecodeVersionBump re-stamps a valid file with the previous and a
// future format version (footer recomputed so only the version differs)
// and requires ErrVersion — a payload is never reinterpreted across
// versions, and an older daemon's file degrades to a cold load.
func TestDecodeVersionBump(t *testing.T) {
	for _, v := range []uint16{Version - 1, Version + 1} {
		data := Encode(sampleSession())
		binary.LittleEndian.PutUint16(data[6:8], v)
		patchCRC(data)
		s, err := Decode(data)
		if s != nil {
			t.Fatalf("version-%d file returned a session", v)
		}
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: got %v, want ErrVersion", v, err)
		}
	}
}

// TestDecodeBadMagic: a file that simply isn't a snapshot.
func TestDecodeBadMagic(t *testing.T) {
	data := Encode(sampleSession())
	copy(data, "NOTSNP")
	patchCRC(data)
	if _, err := Decode(data); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
}

// TestDecodeCorruptStructures patches structurally invalid payloads with
// a valid checksum, pinning that the parser itself rejects them.
func TestDecodeCorruptStructures(t *testing.T) {
	t.Run("badSource", func(t *testing.T) {
		s := sampleSession()
		s.Source = "neither"
		if _, err := Decode(Encode(s)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("hugeCount", func(t *testing.T) {
		// A count field claiming more elements than the payload could
		// hold must fail cleanly, not attempt the allocation.
		data := Encode(&Session{Hash: "h", Source: "registry", Registry: "r"})
		// Payload layout here: hash "h" (2 bytes), source "registry"
		// (9), names count (1), registry "r" (2), doc len (1), then the
		// verdicts count byte — patch it to a 5-byte varint ≈ 2^34.
		off := 16 + 2 + 9 + 1 + 2 + 1
		grown := make([]byte, 0, len(data)+4)
		grown = append(grown, data[:off]...)
		grown = binary.AppendUvarint(grown, 1<<34)
		grown = append(grown, data[off+1:]...)
		binary.LittleEndian.PutUint64(grown[8:16], uint64(len(grown)-16-4))
		patchCRC(grown)
		s, err := Decode(grown)
		if s != nil || !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got session=%v err=%v, want ErrCorrupt", s, err)
		}
	})
	t.Run("badBool", func(t *testing.T) {
		s := &Session{Hash: "h", Source: "registry", Registry: "r",
			Verdicts: []Verdict{{Assign: "post", Formula: "f", Valid: true}}}
		data := Encode(s)
		// The verdict's bool byte is the only 0x01 payload byte after
		// the formula "f"; find it from the end (before the varints and
		// footer) and poison it.
		off := 16 + 2 + 9 + 1 + 2 + 1 + 1 /*verdicts=1*/ + 5 /*"post"*/ + 2 /*"f"*/
		if data[off] != 1 {
			t.Fatalf("layout drift: expected bool byte at %d, found %d", off, data[off])
		}
		data[off] = 7
		patchCRC(data)
		if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
}
