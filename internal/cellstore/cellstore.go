// Package cellstore implements Spitz's virtual cell store (Section 5).
//
// Instead of a row or column store, Spitz "maps each cell to a universal
// key consisting of the column id, primary key, timestamp, and the hash of
// its value". Following ForkBase's multi-version layout, the store keeps
// one authenticated tree entry per cell — keyed by (table, column, primary
// key) — whose value is the cell's *head* (newest) version; superseded
// versions are demoted into out-of-band, content-addressed chain objects.
// The universal key is thereby realized physically: a version object's
// address is the hash of its content, which includes its timestamp and
// value, and the logical universal key (EncodeKey) names it uniquely.
//
// This layout is what keeps Spitz's write path comparable to the plain
// immutable KVS (Figure 6(b)): an update rewrites one compact head entry
// and appends one small chain object, rather than growing the
// authenticated tree by one entry per version. Every historical version
// remains committed by the ledger: the block that contained it has it as
// the head under that block's tree root.
package cellstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"spitz/internal/cas"
	"spitz/internal/hashutil"
	"spitz/internal/postree"
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

// Key is the logical universal key of a cell version.
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

// DecodeKey parses universal key bytes.
func DecodeKey(data []byte) (Key, error) {
	var k Key
	seg, rest, err := readSegment(data)
	if err != nil {
		return k, fmt.Errorf("cellstore: table: %w", err)
	}
	k.Table = string(seg)
	seg, rest, err = readSegment(rest)
	if err != nil {
		return k, fmt.Errorf("cellstore: column: %w", err)
	}
	k.Column = string(seg)
	seg, rest, err = readSegment(rest)
	if err != nil {
		return k, fmt.Errorf("cellstore: pk: %w", err)
	}
	k.PK = seg
	if len(rest) != 8+hashutil.DigestSize {
		return k, errors.New("cellstore: bad key tail length")
	}
	k.Version = binary.BigEndian.Uint64(rest[:8])
	copy(k.ValueHash[:], rest[8:])
	return k, nil
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

// ---------------------------------------------------------------------------
// Version (head and chain object) encoding

const (
	flagTombstone byte = 1 << 0
)

// EncodeVersion serializes a cell version: the head entry payload in the
// tree, and equally the content of a demoted chain object in the store.
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

// DecodeVersion parses an encoded cell version.
func DecodeVersion(data []byte) (version uint64, value []byte, tombstone bool, err error) {
	if len(data) == 0 {
		return 0, nil, false, errors.New("cellstore: empty cell version")
	}
	flag := data[0]
	if flag&^flagTombstone != 0 {
		return 0, nil, false, errors.New("cellstore: bad cell flags")
	}
	v, k := binary.Uvarint(data[1:])
	if k <= 0 {
		return 0, nil, false, errors.New("cellstore: bad cell version")
	}
	return v, data[1+k:], flag&flagTombstone != 0, nil
}

// ValueHash returns the digest of a version's content — the address of its
// chain object and the value-hash component of its universal key.
func ValueHash(version uint64, value []byte, tombstone bool) hashutil.Digest {
	return hashutil.Sum(hashutil.DomainCell, EncodeVersion(version, value, tombstone))
}

// UniversalKey returns the logical universal key of a cell.
func UniversalKey(c Cell) Key {
	return Key{Table: c.Table, Column: c.Column, PK: c.PK, Version: c.Version,
		ValueHash: ValueHash(c.Version, c.Value, c.Tombstone)}
}

// Demoted describes a version that was superseded during Apply and now
// lives as a chain object in the store. The ledger indexes these to serve
// historical point lookups.
type Demoted struct {
	Ref     []byte // CellPrefix of the cell
	Version uint64
	Object  hashutil.Digest // content address of the encoded version
}

// ---------------------------------------------------------------------------
// Store: query layer over an authenticated POS-tree snapshot

// Store is a read/write view of the cell store at one tree snapshot. A
// Store sees each cell's head version as of its snapshot; older versions
// are resolved through earlier snapshots (one per ledger block) or the
// ledger's version index.
type Store struct {
	Tree *postree.Tree
}

// Apply persists a batch of cells and returns the Store of the new
// snapshot plus the versions it demoted into chain objects. Multiple
// versions of one cell in a batch are applied in version order.
func (s Store) Apply(cells []Cell) (Store, []Demoted, error) {
	var demoted []Demoted
	cas := s.Tree.Store()
	// Encode each cell's reference once; group by ref, demoting all but
	// the newest version per ref immediately.
	refs := make([][]byte, len(cells))
	for i := range cells {
		refs[i] = CellPrefix(cells[i].Table, cells[i].Column, cells[i].PK)
	}
	latest := make(map[string]int, len(cells))
	for i := range cells {
		j, ok := latest[string(refs[i])]
		if !ok {
			latest[string(refs[i])] = i
			continue
		}
		// Later batch positions win version ties: a transaction that
		// writes one cell twice at its commit version keeps the last
		// write, matching batch (and SQL) semantics.
		older := j
		if cells[i].Version >= cells[j].Version {
			latest[string(refs[i])] = i
		} else {
			older = i
		}
		enc := EncodeVersion(cells[older].Version, cells[older].Value, cells[older].Tombstone)
		demoted = append(demoted, Demoted{
			Ref:     refs[older],
			Version: cells[older].Version,
			Object:  cas.Put(hashutil.DomainCell, enc),
		})
	}
	edits := make([]postree.Edit, 0, len(latest))
	for _, i := range latest {
		c := cells[i]
		edits = append(edits, postree.Edit{
			Key:   refs[i],
			Value: EncodeVersion(c.Version, c.Value, c.Tombstone),
		})
	}
	nt, err := s.Tree.ApplyFunc(edits, func(key, oldValue []byte) {
		ver, _, _, err := DecodeVersion(oldValue)
		if err != nil {
			return
		}
		demoted = append(demoted, Demoted{
			Ref:     append([]byte(nil), key...),
			Version: ver,
			Object:  cas.Put(hashutil.DomainCell, oldValue),
		})
	})
	if err != nil {
		return Store{}, nil, err
	}
	return Store{Tree: nt}, demoted, nil
}

// GetHead returns the head version of a cell in this snapshot.
func (s Store) GetHead(table, column string, pk []byte) (Cell, bool, error) {
	raw, found, err := s.Tree.Get(CellPrefix(table, column, pk))
	if err != nil || !found {
		return Cell{}, false, err
	}
	ver, value, tomb, err := DecodeVersion(raw)
	if err != nil {
		return Cell{}, false, err
	}
	return Cell{Table: table, Column: column, PK: append([]byte(nil), pk...),
		Version: ver, Value: append([]byte(nil), value...), Tombstone: tomb}, true, nil
}

// GetLatest returns the head version if it is at or before asOf. A head
// newer than asOf reports not-found: within one snapshot the store only
// materializes heads — resolve older versions via an earlier ledger
// snapshot or the ledger's version index.
func (s Store) GetLatest(table, column string, pk []byte, asOf uint64) (Cell, bool, error) {
	c, found, err := s.GetHead(table, column, pk)
	if err != nil || !found {
		return Cell{}, false, err
	}
	if c.Version > asOf {
		return Cell{}, false, nil
	}
	return c, true, nil
}

// RangePK returns the live head cells of one column whose primary key lies
// in [pkLo, pkHi) and whose version is at or before asOf. Tombstoned rows
// and rows newer than asOf are omitted.
func (s Store) RangePK(table, column string, pkLo, pkHi []byte, asOf uint64) ([]Cell, error) {
	start, end := RefRange(table, column, pkLo, pkHi)
	var out []Cell
	err := s.Tree.Scan(start, end, func(e postree.Entry) bool {
		_, _, pk, err := DecodeRef(e.Key)
		if err != nil {
			return false
		}
		ver, value, tomb, err := DecodeVersion(e.Value)
		if err != nil {
			return false
		}
		if tomb || ver > asOf {
			return true
		}
		out = append(out, Cell{Table: table, Column: column, PK: append([]byte(nil), pk...),
			Version: ver, Value: append([]byte(nil), value...)})
		return true
	})
	return out, err
}

// Columns returns, sorted, the columns some cell of table has a key for in
// this snapshot: the tree's keys are the schema. A tombstone keeps its key,
// so a column whose cells are all deleted is still listed. The walk seeks
// once per column, from a column's first key straight past its last
// (PrefixEnd), so a column costs one descent, not a scan of its cells.
func (s Store) Columns(table string) ([]string, error) {
	prefix := appendSegment(nil, []byte(table))
	var out []string
	for from := prefix; ; {
		e, ok, err := s.Tree.Seek(from)
		if err != nil {
			return nil, err
		}
		if !ok || !bytes.HasPrefix(e.Key, prefix) {
			return out, nil
		}
		col, rest, err := readSegment(e.Key[len(prefix):])
		if err != nil {
			return nil, fmt.Errorf("cellstore: ref column: %w", err)
		}
		out = append(out, string(col))
		from = PrefixEnd(e.Key[:len(e.Key)-len(rest)]) // past ColumnPrefix(table, col)
	}
}

// RefRange returns the tree-key bounds of a pk range scan over one
// column: the [start, end) pair a RangeProof over [pkLo, pkHi) must carry.
// Audit clients use it to check a proven range is the range they asked
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

// ProveGetHead returns the head version of a cell together with its
// one-key proof under this snapshot's root. Absence is also proven.
func (s Store) ProveGetHead(table, column string, pk []byte) (Cell, bool, postree.BatchProof, error) {
	p, err := s.Tree.ProveGet(CellPrefix(table, column, pk))
	if err != nil {
		return Cell{}, false, postree.BatchProof{}, err
	}
	c, ok, err := HeadCell(table, column, pk, p)
	if err != nil {
		return Cell{}, false, postree.BatchProof{}, err
	}
	return c, ok, p, nil
}

// HeadCell is the cell a one-key proof of table.column.pk proves: its head
// version, a tombstone included, copied out of the proof's leaf; ok is
// false when the proof shows the key absent.
func HeadCell(table, column string, pk []byte, p postree.BatchProof) (Cell, bool, error) {
	if len(p.Found) != 1 || !p.Found[0] {
		return Cell{}, false, nil
	}
	ver, value, tomb, err := DecodeVersion(p.Values[0])
	if err != nil {
		return Cell{}, false, err
	}
	return Cell{Table: table, Column: column, PK: append([]byte(nil), pk...),
		Version: ver, Value: append([]byte(nil), value...), Tombstone: tomb}, true, nil
}

// ProveRangePK returns the result of RangePK (at this snapshot's own
// versions) together with one range proof covering the whole scan. The
// proof's completeness guarantee is what lets a verified analytical query
// cost a single traversal (Figure 7).
func (s Store) ProveRangePK(table, column string, pkLo, pkHi []byte) ([]Cell, postree.RangeProof, error) {
	start, end := RefRange(table, column, pkLo, pkHi)
	proof, err := s.Tree.ProveScan(start, end)
	if err != nil {
		return nil, postree.RangeProof{}, err
	}
	cells, err := DecodeEntries(proof.Entries)
	if err != nil {
		return nil, postree.RangeProof{}, err
	}
	live := cells[:0]
	for _, c := range cells {
		if !c.Tombstone {
			live = append(live, c)
		}
	}
	return live, proof, nil
}

// DecodeEntries decodes cell-store tree entries (ref -> head version) into
// cells, including tombstones.
func DecodeEntries(entries []postree.Entry) ([]Cell, error) {
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

// LoadVersion loads a demoted version object from the store.
func LoadVersion(store cas.Store, table, column string, pk []byte, object hashutil.Digest) (Cell, error) {
	data, err := store.Get(object)
	if err != nil {
		return Cell{}, err
	}
	ver, value, tomb, err := DecodeVersion(data)
	if err != nil {
		return Cell{}, err
	}
	return Cell{Table: table, Column: column, PK: append([]byte(nil), pk...),
		Version: ver, Value: append([]byte(nil), value...), Tombstone: tomb}, nil
}

// KeySuccessor returns the smallest key strictly greater than key.
func KeySuccessor(key []byte) []byte {
	out := make([]byte, len(key)+1)
	copy(out, key)
	return out
}
