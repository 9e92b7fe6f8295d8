// Package frame is the envelope of kpa's durable files, the session
// snapshots of internal/snapshot and the search checkpoints of
// internal/search:
//
//	offset 0   magic   6 bytes, one per format
//	offset 6   version uint16 little-endian
//	offset 8   payload length uint64 little-endian
//	offset 16  payload
//	tail       CRC-32C (Castagnoli) of everything before it, uint32 LE
//
// Decode refuses, with an error wrapping exactly one of the sentinels
// below, any file that is not of the format (ErrBadMagic), from another
// version of it (ErrVersion), shorter or longer than its header promises
// (ErrTruncated), or changed anywhere after it was written (ErrChecksum).
// A payload decoder reports a payload that passed the checksum but does
// not parse with ErrCorrupt.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Typed decode failures.
var (
	// ErrBadMagic: the file does not begin with the format's magic.
	ErrBadMagic = errors.New("bad magic")
	// ErrVersion: the file's format version is not the reader's.
	ErrVersion = errors.New("unsupported format version")
	// ErrTruncated: the file is shorter (or longer) than its header
	// promises.
	ErrTruncated = errors.New("truncated")
	// ErrChecksum: the footer CRC does not match the file's contents.
	ErrChecksum = errors.New("checksum mismatch")
	// ErrCorrupt: the checksum holds but the payload is structurally
	// inconsistent (a writer bug or a deliberate forgery, not bit rot).
	ErrCorrupt = errors.New("corrupt payload")
)

// Format names one framed file format.
type Format struct {
	Magic [6]byte
	// Version is the payload layout the reader understands; Decode
	// rejects every other one rather than guess at it.
	Version uint16
}

// crcTable is the Castagnoli polynomial table; CRC-32C has hardware
// support on the platforms the daemon runs on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Encode frames the payload: header, payload, footer CRC.
func (f Format) Encode(payload []byte) []byte {
	out := make([]byte, 0, 16+len(payload)+4)
	out = append(out, f.Magic[:]...)
	out = binary.LittleEndian.AppendUint16(out, f.Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// Decode checks the frame and returns the payload, a subslice of data.
func (f Format) Decode(data []byte) ([]byte, error) {
	if len(data) < len(f.Magic) {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the magic", ErrTruncated, len(data))
	}
	if [6]byte(data[:6]) != f.Magic {
		return nil, ErrBadMagic
	}
	if len(data) < 16+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than an empty file", ErrTruncated, len(data))
	}
	if v := binary.LittleEndian.Uint16(data[6:8]); v != f.Version {
		return nil, fmt.Errorf("%w: file has version %d, this build reads version %d", ErrVersion, v, f.Version)
	}
	body := len(data) - 16 - 4
	if plen := binary.LittleEndian.Uint64(data[8:16]); plen != uint64(body) {
		return nil, fmt.Errorf("%w: header promises %d payload bytes, file carries %d", ErrTruncated, plen, body)
	}
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(data[:len(data)-4], crcTable); got != sum {
		return nil, fmt.Errorf("%w: footer %08x, contents %08x", ErrChecksum, sum, got)
	}
	return data[16 : len(data)-4], nil
}
