package proof

// The cell store's key and version codec (internal/cellstore keeps the
// cells): what a tree key and a head entry say, which a verifier reads the
// cells it proved off, and the universal key its audit receipts hash.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"spitz/internal/hashutil"
)

// Cell is one value of one column of one row at one version.
type Cell struct {
	Table     string
	Column    string
	PK        []byte
	Version   uint64
	Value     []byte
	Tombstone bool // a deletion marker: the cell ceased to exist here
}

// Key is the logical universal key of a cell version: Spitz "maps each
// cell to a universal key consisting of the column id, primary key,
// timestamp, and the hash of its value".
type Key struct {
	Table     string
	Column    string
	PK        []byte
	Version   uint64
	ValueHash hashutil.Digest
}

// ---------------------------------------------------------------------------
// Order-preserving tuple encoding
//
// Each variable-length segment escapes 0x00 as {0x00,0xFF} and terminates
// with {0x00,0x01}; the terminator sorts below every escaped byte pair, so
// byte-wise comparison of encodings matches segment-wise comparison of the
// tuples, and no encoding is a prefix of another.

func appendSegment(dst, seg []byte) []byte {
	for _, b := range seg {
		if b == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, b)
		}
	}
	return append(dst, 0x00, 0x01)
}

func readSegment(src []byte) (seg, rest []byte, err error) {
	var out []byte
	for i := 0; i < len(src); i++ {
		b := src[i]
		if b != 0x00 {
			out = append(out, b)
			continue
		}
		if i+1 >= len(src) {
			return nil, nil, errors.New("cellstore: truncated segment escape")
		}
		switch src[i+1] {
		case 0xFF:
			out = append(out, 0x00)
			i++
		case 0x01:
			return out, src[i+2:], nil
		default:
			return nil, nil, errors.New("cellstore: invalid segment escape")
		}
	}
	return nil, nil, errors.New("cellstore: unterminated segment")
}

// EncodeKey produces the logical universal key bytes for k. It names one
// cell version; the write-set hashes in ledger blocks are computed over
// these encodings.
func EncodeKey(k Key) []byte {
	out := make([]byte, 0, len(k.Table)+len(k.Column)+len(k.PK)+8+hashutil.DigestSize+8)
	out = appendSegment(out, []byte(k.Table))
	out = appendSegment(out, []byte(k.Column))
	out = appendSegment(out, k.PK)
	out = binary.BigEndian.AppendUint64(out, k.Version)
	out = append(out, k.ValueHash[:]...)
	return out
}

// CellPrefix returns the tree key of a cell: its (table, column, primary
// key) reference. It doubles as the cell reference used by the transaction
// layer (DecodeRef inverts it).
func CellPrefix(table, column string, pk []byte) []byte {
	// Room for the segments and their terminators: one allocation unless
	// a segment holds 0x00 bytes to escape.
	out := make([]byte, 0, len(table)+len(column)+len(pk)+6)
	out = appendSegment(out, []byte(table))
	out = appendSegment(out, []byte(column))
	return appendSegment(out, pk)
}

// DecodeRef parses a cell reference produced by CellPrefix.
func DecodeRef(ref []byte) (table, column string, pk []byte, err error) {
	seg, rest, err := readSegment(ref)
	if err != nil {
		return "", "", nil, fmt.Errorf("cellstore: ref table: %w", err)
	}
	table = string(seg)
	seg, rest, err = readSegment(rest)
	if err != nil {
		return "", "", nil, fmt.Errorf("cellstore: ref column: %w", err)
	}
	column = string(seg)
	seg, rest, err = readSegment(rest)
	if err != nil {
		return "", "", nil, fmt.Errorf("cellstore: ref pk: %w", err)
	}
	if len(rest) != 0 {
		return "", "", nil, errors.New("cellstore: trailing ref bytes")
	}
	return table, column, seg, nil
}

// ColumnPrefix returns the key prefix covering every cell of one column.
func ColumnPrefix(table, column string) []byte {
	out := appendSegment(nil, []byte(table))
	return appendSegment(out, []byte(column))
}

// PrefixEnd returns the smallest key greater than every key with the given
// prefix, for use as an exclusive scan bound.
func PrefixEnd(prefix []byte) []byte {
	out := make([]byte, len(prefix), len(prefix)+1)
	copy(out, prefix)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil // prefix was all 0xFF: scan to the end
}

// RefRange returns the tree-key range of the primary keys [pkLo, pkHi) of
// one column: the [start, end) pair a RangeProof over [pkLo, pkHi) must
// carry. Clients use it to check a proven range is the range they asked
// for, not a narrower substitute.
func RefRange(table, column string, pkLo, pkHi []byte) (start, end []byte) {
	start = appendSegment(ColumnPrefix(table, column), pkLo)
	if pkHi != nil {
		end = appendSegment(ColumnPrefix(table, column), pkHi)
	} else {
		end = PrefixEnd(ColumnPrefix(table, column))
	}
	return start, end
}

// ---------------------------------------------------------------------------
// Version (head and chain object) encoding

const (
	flagTombstone byte = 1 << 0
	// FlagLinked: the content address of the version this one replaced
	// follows the flags byte. A cell's first version has no link.
	FlagLinked byte = 1 << 1
)

// EncodeVersion serializes a cell version that replaced none: a cell's
// first head entry, and the content its universal key hashes (ValueHash).
func EncodeVersion(version uint64, value []byte, tombstone bool) []byte {
	var flag byte
	if tombstone {
		flag |= flagTombstone
	}
	out := make([]byte, 0, 1+binary.MaxVarintLen64+len(value))
	out = append(out, flag)
	out = binary.AppendUvarint(out, version)
	return append(out, value...)
}

// Link returns the content address of the version enc replaced; ok is
// false for a version that names none (or an encoding too short to).
func Link(enc []byte) (pred hashutil.Digest, ok bool) {
	if len(enc) < 1+hashutil.DigestSize || enc[0]&FlagLinked == 0 {
		return pred, false
	}
	copy(pred[:], enc[1:])
	return pred, true
}

// DecodeVersion parses an encoded cell version; a link is skipped (Link
// reads it).
func DecodeVersion(data []byte) (version uint64, value []byte, tombstone bool, err error) {
	if len(data) == 0 {
		return 0, nil, false, errors.New("cellstore: empty cell version")
	}
	flag, rest := data[0], data[1:]
	if flag&^(flagTombstone|FlagLinked) != 0 {
		return 0, nil, false, errors.New("cellstore: bad cell flags")
	}
	if flag&FlagLinked != 0 {
		if len(rest) < hashutil.DigestSize {
			return 0, nil, false, errors.New("cellstore: truncated version link")
		}
		rest = rest[hashutil.DigestSize:]
	}
	v, k := binary.Uvarint(rest)
	if k <= 0 {
		return 0, nil, false, errors.New("cellstore: bad cell version")
	}
	return v, rest[k:], flag&flagTombstone != 0, nil
}

// Chain is the check of a cell's history: head is the cell's head entry as
// a proof's walk reached it (found false: the cell is absent), and bodies
// the versions it replaced, newest first. Each body must hash to the link
// of the version before it, versions must fall strictly, and the chain
// must end exactly at a body that names no predecessor: so no version can
// be dropped, reordered, rewritten, hidden or added. It returns every
// version, newest first, tombstones included.
func Chain(table, column string, pk []byte, head []byte, found bool, bodies [][]byte) ([]Cell, error) {
	if !found {
		if len(bodies) != 0 {
			return nil, errors.New("proof: history of an absent cell carries versions")
		}
		return nil, nil
	}
	out := make([]Cell, 0, 1+len(bodies))
	for i, enc := 0, head; ; i++ {
		ver, value, tomb, err := DecodeVersion(enc)
		if err != nil {
			return nil, err
		}
		if i > 0 && ver >= out[i-1].Version {
			return nil, errors.New("proof: history versions do not fall")
		}
		out = append(out, Cell{Table: table, Column: column, PK: pk, Version: ver, Value: value, Tombstone: tomb})
		pred, linked := Link(enc)
		if !linked || i == len(bodies) {
			if linked || i < len(bodies) {
				return nil, errors.New("proof: history does not end at the first version of its chain")
			}
			return out, nil
		}
		if enc = bodies[i]; hashutil.Sum(hashutil.DomainCell, enc) != pred {
			return nil, errors.New("proof: history version does not hash to its link")
		}
	}
}

// ValueHash returns the digest of a version's content without its link:
// the value-hash component of its universal key, so a write set hashes the
// same whatever the cell held before.
func ValueHash(version uint64, value []byte, tombstone bool) hashutil.Digest {
	return hashutil.Sum(hashutil.DomainCell, EncodeVersion(version, value, tombstone))
}

// UniversalKey returns the logical universal key of a cell.
func UniversalKey(c Cell) Key {
	return Key{Table: c.Table, Column: c.Column, PK: c.PK, Version: c.Version,
		ValueHash: ValueHash(c.Version, c.Value, c.Tombstone)}
}

// DecodeEntries decodes cell-store tree entries (ref -> head version) into
// cells, including tombstones.
func DecodeEntries(entries []Entry) ([]Cell, error) {
	out := make([]Cell, 0, len(entries))
	for _, e := range entries {
		table, column, pk, err := DecodeRef(e.Key)
		if err != nil {
			return nil, err
		}
		ver, value, tomb, err := DecodeVersion(e.Value)
		if err != nil {
			return nil, err
		}
		out = append(out, Cell{Table: table, Column: column, PK: pk,
			Version: ver, Value: value, Tombstone: tomb})
	}
	return out, nil
}

// LiveCells decodes entries as DecodeEntries does and leaves the
// tombstones out: the rows a range scan answers with.
func LiveCells(entries []Entry) ([]Cell, error) {
	cells, err := DecodeEntries(entries)
	return slices.DeleteFunc(cells, func(c Cell) bool { return c.Tombstone }), err
}
