// Package snapshot defines the durable on-disk format for a loaded
// session of the serving stack. A snapshot keeps only what a restart
// cannot recompute: the system's identity (its canonical content hash
// and a registry name or the uploaded encode document), the names it is
// loaded under, and the session's slice of the verdict cache. Everything
// else the evaluator derives — the dense index, the ∼_i information
// cells, the sample spaces of the assignments — is a function of the
// system alone, so a restore rebuilds it. internal/service writes one
// snapshot file per distinct system (keyed by canonical content hash,
// canon.Hash) and restores them at boot, so a restarted daemon serves
// every verdict it had already paid for from the first request.
//
// The format is binary, versioned and checksummed: a Session payload in
// the internal/frame envelope, with magic "KPSNAP" and version Version.
//
// Decode refuses — with a typed error, never a partial Session — any
// file that is truncated (ErrTruncated), from a different format version
// (ErrVersion), bit-flipped anywhere (ErrChecksum), not a snapshot at
// all (ErrBadMagic), or structurally inconsistent despite an intact
// checksum (ErrCorrupt). Restores treat every one of these as "no
// snapshot": the server falls back to a cold load rather than trusting
// damaged bytes, which is what makes crash-mid-write (the temp file +
// rename discipline's failure window) recoverable.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"

	"kpa/internal/frame"
)

// Version is the current format version. Decode rejects every other
// version with ErrVersion rather than guess at another layout, so a file
// written by a different build degrades to a cold load.
const Version = 2

// Ext is the snapshot file extension.
const Ext = ".kpasnap"

// Filename returns the snapshot file name for a system's canonical
// content hash.
func Filename(hash string) string { return hash + Ext }

// Typed decode failures, the frame package's. Every Decode error wraps
// exactly one of these, so callers can classify failures without string
// matching.
var (
	ErrBadMagic  = frame.ErrBadMagic
	ErrVersion   = frame.ErrVersion
	ErrTruncated = frame.ErrTruncated
	ErrChecksum  = frame.ErrChecksum
	ErrCorrupt   = frame.ErrCorrupt
)

// Session is one system's durable state. Exactly one of Registry and Doc
// identifies the system: Source "registry" carries the registry name to
// rebuild from, Source "upload" carries the original encode document
// (propositions are compiled closures and cannot be serialized, so the
// document — which can — is the unit of durability for uploads).
type Session struct {
	// Hash is the system's canonical content hash (canon.Hash), the
	// snapshot's key. Restores verify the rebuilt system hashes to
	// exactly this value before adopting any verdict.
	Hash string
	// Source is "registry" or "upload".
	Source string
	// Names are the names the session was loaded under (aliases
	// included), sorted.
	Names []string
	// Registry is the registry name to rebuild from (Source "registry").
	Registry string
	// Doc is the original uploaded encode document (Source "upload").
	Doc []byte
	// Verdicts is the session's slice of the verdict cache.
	Verdicts []Verdict
}

// Verdict is one cached verdict, keyed within the session by
// (assignment, canonical formula).
type Verdict struct {
	Assign          string
	Formula         string
	Valid           bool
	HoldsAt         int
	Points          int
	CounterTotal    int
	CounterExamples []string
}

var snapFrame = frame.Format{Magic: [6]byte{'K', 'P', 'S', 'N', 'A', 'P'}, Version: Version}

// Encode serializes the session in the current format, footer CRC
// included.
func Encode(s *Session) []byte {
	var p payloadWriter
	p.str(s.Hash)
	p.str(s.Source)
	p.uvarint(uint64(len(s.Names)))
	for _, n := range s.Names {
		p.str(n)
	}
	p.str(s.Registry)
	p.bytes(s.Doc)
	p.uvarint(uint64(len(s.Verdicts)))
	for _, v := range s.Verdicts {
		p.str(v.Assign)
		p.str(v.Formula)
		p.bool(v.Valid)
		p.uvarint(uint64(v.HoldsAt))
		p.uvarint(uint64(v.Points))
		p.uvarint(uint64(v.CounterTotal))
		p.uvarint(uint64(len(v.CounterExamples)))
		for _, ce := range v.CounterExamples {
			p.str(ce)
		}
	}
	return snapFrame.Encode(p.buf)
}

// Decode parses a snapshot file. On any failure it returns nil and an
// error wrapping exactly one of the typed sentinels above — never a
// partially-filled Session.
func Decode(data []byte) (*Session, error) {
	payload, err := snapFrame.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	r := &payloadReader{buf: payload}
	s := &Session{}
	s.Hash = r.str()
	s.Source = r.str()
	s.Names = make([]string, 0, r.count(1))
	for i := uint64(0); i < uint64(cap(s.Names)); i++ {
		s.Names = append(s.Names, r.str())
	}
	s.Registry = r.str()
	s.Doc = r.bytes()
	nVerdicts := r.count(7)
	for i := uint64(0); i < nVerdicts && r.err == nil; i++ {
		var v Verdict
		v.Assign = r.str()
		v.Formula = r.str()
		v.Valid = r.bool()
		v.HoldsAt = int(r.uvarint())
		v.Points = int(r.uvarint())
		v.CounterTotal = int(r.uvarint())
		nCE := r.count(1)
		for j := uint64(0); j < nCE && r.err == nil; j++ {
			v.CounterExamples = append(v.CounterExamples, r.str())
		}
		s.Verdicts = append(s.Verdicts, v)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != r.off {
		return nil, fmt.Errorf("snapshot: %w: %d trailing payload bytes", ErrCorrupt, len(r.buf)-r.off)
	}
	if s.Source != "registry" && s.Source != "upload" {
		return nil, fmt.Errorf("snapshot: %w: unknown source %q", ErrCorrupt, s.Source)
	}
	return s, nil
}

// payloadWriter accumulates the payload section. Writes cannot fail.
type payloadWriter struct {
	buf []byte
}

func (p *payloadWriter) uvarint(v uint64) { p.buf = binary.AppendUvarint(p.buf, v) }
func (p *payloadWriter) bytes(b []byte) {
	p.uvarint(uint64(len(b)))
	p.buf = append(p.buf, b...)
}
func (p *payloadWriter) str(s string) {
	p.uvarint(uint64(len(s)))
	p.buf = append(p.buf, s...)
}
func (p *payloadWriter) bool(v bool) {
	if v {
		p.buf = append(p.buf, 1)
	} else {
		p.buf = append(p.buf, 0)
	}
}

// payloadReader walks the payload, latching the first structural error.
// Every accessor returns a zero value once an error is set, so decoding
// never indexes past the buffer, and count() bounds element counts by
// the bytes actually remaining — a corrupt length field can therefore
// never force a huge allocation.
type payloadReader struct {
	buf []byte
	off int
	err error
}

func (r *payloadReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: %w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (r *payloadReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// count reads an element count and rejects counts that could not
// possibly fit in the remaining payload, given a minimum encoded size
// per element.
func (r *payloadReader) count(minPerElem int) uint64 {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)-r.off)/uint64(minPerElem)+1 || n > math.MaxInt32 {
		r.fail("count %d exceeds remaining payload at offset %d", n, r.off)
		return 0
	}
	return n
}

func (r *payloadReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.fail("need %d bytes at offset %d, have %d", n, r.off, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *payloadReader) str() string {
	n := r.uvarint()
	if n > uint64(len(r.buf)-r.off) {
		r.fail("string of %d bytes at offset %d overruns payload", n, r.off)
		return ""
	}
	return string(r.take(int(n)))
}

func (r *payloadReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.buf)-r.off) {
		r.fail("blob of %d bytes at offset %d overruns payload", n, r.off)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.take(int(n)))
	return out
}

func (r *payloadReader) bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("bad bool byte %d at offset %d", b[0], r.off-1)
		return false
	}
}
