// Package binenc holds the primitive append/read helpers shared by the
// hand-rolled wire codec (internal/wire and the proof types it carries).
//
// Conventions, chosen so decoding is allocation-light and encoding is
// canonical (the same value always produces the same bytes):
//
//   - Unsigned integers are uvarints (encoding/binary's format).
//   - Byte slices distinguish nil from empty: nil encodes as uvarint 0,
//     a slice of n bytes as uvarint n+1 followed by the bytes. Several
//     proof fields give nil a distinct meaning (an unbounded range end,
//     an absent value), so the distinction must survive the wire.
//   - Strings encode as uvarint length + bytes ("" is length 0).
//   - Bools are one byte, 0 or 1.
//
// Every Read* helper returns the remaining input and bounds-checks
// against it; malformed input returns ErrCorrupt, never a panic — the
// decoders run against attacker-controlled bytes.
package binenc

import (
	"encoding/binary"
	"errors"
)

// ErrCorrupt reports malformed or truncated input.
var ErrCorrupt = errors.New("binenc: corrupt encoding")

// AppendUvarint appends v as a uvarint.
func AppendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// ReadUvarint consumes a uvarint from src.
func ReadUvarint(src []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, nil, ErrCorrupt
	}
	return v, src[n:], nil
}

// AppendUint64 appends v as 8 fixed big-endian bytes. Trace and span
// IDs use this instead of uvarints: they are uniformly random 64-bit
// values, so a varint would average nine bytes and break the
// fixed-width layout for nothing.
func AppendUint64(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

// ReadUint64 consumes 8 fixed big-endian bytes.
func ReadUint64(src []byte) (uint64, []byte, error) {
	if len(src) < 8 {
		return 0, nil, ErrCorrupt
	}
	return binary.BigEndian.Uint64(src), src[8:], nil
}

// AppendBool appends b as one byte.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// ReadBool consumes one 0/1 byte.
func ReadBool(src []byte) (bool, []byte, error) {
	if len(src) < 1 || src[0] > 1 {
		return false, nil, ErrCorrupt
	}
	return src[0] == 1, src[1:], nil
}

// AppendBytes appends b preserving nil-ness: nil is uvarint 0, a slice
// of n bytes is uvarint n+1 + the bytes.
func AppendBytes(dst, b []byte) []byte {
	if b == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(b))+1)
	return append(dst, b...)
}

// ReadBytes consumes a nil-preserving byte slice. The returned slice is
// a copy, safe to retain after the caller recycles src.
func ReadBytes(src []byte) ([]byte, []byte, error) {
	n, rest, err := ReadUvarint(src)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, rest, nil
	}
	n--
	if uint64(len(rest)) < n {
		return nil, nil, ErrCorrupt
	}
	out := make([]byte, n)
	copy(out, rest[:n])
	return out, rest[n:], nil
}

// AppendString appends s as uvarint length + bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ReadString consumes a string.
func ReadString(src []byte) (string, []byte, error) {
	n, rest, err := ReadUvarint(src)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(rest)) < n {
		return "", nil, ErrCorrupt
	}
	return string(rest[:n]), rest[n:], nil
}

// AppendByteSlices appends a nil-preserving slice of nil-preserving byte
// slices (nil slice = 0, n elements = n+1).
func AppendByteSlices(dst []byte, bs [][]byte) []byte {
	if bs == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(bs))+1)
	for _, b := range bs {
		dst = AppendBytes(dst, b)
	}
	return dst
}

// ReadByteSlices consumes a slice of byte slices.
func ReadByteSlices(src []byte) ([][]byte, []byte, error) {
	n, rest, err := ReadUvarint(src)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, rest, nil
	}
	n--
	// Each element costs at least one length byte: reject counts the
	// remaining input cannot possibly hold, so corrupt input cannot
	// trigger a huge allocation.
	if n > uint64(len(rest)) {
		return nil, nil, ErrCorrupt
	}
	out := make([][]byte, n)
	for i := range out {
		if out[i], rest, err = ReadBytes(rest); err != nil {
			return nil, nil, err
		}
	}
	return out, rest, nil
}

// AppendBools appends a nil-preserving []bool.
func AppendBools(dst []byte, bs []bool) []byte {
	if bs == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(bs))+1)
	for _, b := range bs {
		dst = AppendBool(dst, b)
	}
	return dst
}

// ReadBools consumes a []bool.
func ReadBools(src []byte) ([]bool, []byte, error) {
	n, rest, err := ReadUvarint(src)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, rest, nil
	}
	n--
	if n > uint64(len(rest)) {
		return nil, nil, ErrCorrupt
	}
	out := make([]bool, n)
	for i := range out {
		if out[i], rest, err = ReadBool(rest); err != nil {
			return nil, nil, err
		}
	}
	return out, rest, nil
}

// Count bounds a decoded element count against the remaining input,
// assuming each element costs at least min bytes — the guard every
// slice decoder applies before allocating.
func Count(n uint64, rest []byte, min int) (int, error) {
	if min < 1 {
		min = 1
	}
	if n > uint64(len(rest))/uint64(min) {
		return 0, ErrCorrupt
	}
	return int(n), nil
}

// Decoder reads a run of fields from Src in turn. The first error sticks:
// every read after it returns the zero value and leaves Src as it was.
type Decoder struct {
	Src []byte
	Err error
}

// Read decodes the next field of d with read, one of the Read functions of
// this package or of a codec built on it.
func Read[T any](d *Decoder, read func([]byte) (T, []byte, error)) T {
	var v T
	if d.Err == nil {
		var rest []byte
		if v, rest, d.Err = read(d.Src); d.Err == nil {
			d.Src = rest
		}
	}
	return v
}

// Flag returns bit when on is true and 0 otherwise: a presence bitmap is
// the OR of one Flag per field.
func Flag(on bool, bit uint64) uint64 {
	if on {
		return bit
	}
	return 0
}
