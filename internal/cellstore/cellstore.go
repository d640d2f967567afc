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
// value, and the logical universal key (proof.EncodeKey) names it uniquely.
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

	"spitz/internal/cas"
	"spitz/internal/hashutil"
	"spitz/internal/postree"
	"spitz/internal/proof"
)

// Cell is one value of one column of one row at one version.
type Cell = proof.Cell

// CellPrefix is proof.CellPrefix: the tree key of a cell.
func CellPrefix(table, column string, pk []byte) []byte { return proof.CellPrefix(table, column, pk) }

// DecodeKey parses universal key bytes (proof.EncodeKey): a cell
// reference, the version and the value hash.
func DecodeKey(data []byte) (proof.Key, error) {
	n := len(data) - 8 - hashutil.DigestSize
	if n < 0 {
		return proof.Key{}, errors.New("cellstore: bad key tail length")
	}
	table, column, pk, err := proof.DecodeRef(data[:n])
	if err != nil {
		return proof.Key{}, err
	}
	k := proof.Key{Table: table, Column: column, PK: pk, Version: binary.BigEndian.Uint64(data[n:])}
	copy(k.ValueHash[:], data[n+8:])
	return k, nil
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
		enc := proof.EncodeVersion(cells[older].Version, cells[older].Value, cells[older].Tombstone)
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
			Value: proof.EncodeVersion(c.Version, c.Value, c.Tombstone),
		})
	}
	nt, err := s.Tree.ApplyFunc(edits, func(key, oldValue []byte) {
		ver, _, _, err := proof.DecodeVersion(oldValue)
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
	ver, value, tomb, err := proof.DecodeVersion(raw)
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
	start, end := proof.RefRange(table, column, pkLo, pkHi)
	var out []Cell
	err := s.Tree.Scan(start, end, func(e proof.Entry) bool {
		_, _, pk, err := proof.DecodeRef(e.Key)
		if err != nil {
			return false
		}
		ver, value, tomb, err := proof.DecodeVersion(e.Value)
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
	first := proof.ColumnPrefix(table, "") // below every key of the table's columns
	prefix := first[:len(first)-2]         // the table's own segment
	var out []string
	for from := prefix; ; {
		e, ok, err := s.Tree.Seek(from)
		if err != nil {
			return nil, err
		}
		if !ok || !bytes.HasPrefix(e.Key, prefix) {
			return out, nil
		}
		_, col, _, err := proof.DecodeRef(e.Key)
		if err != nil {
			return nil, err
		}
		out = append(out, col)
		from = proof.PrefixEnd(proof.ColumnPrefix(table, col))
	}
}

// ProveGetHead returns the head version of a cell together with its
// one-key proof under this snapshot's root. Absence is also proven.
func (s Store) ProveGetHead(table, column string, pk []byte) (Cell, bool, proof.BatchProof, error) {
	p, err := s.Tree.ProveGet(CellPrefix(table, column, pk))
	if err != nil {
		return Cell{}, false, proof.BatchProof{}, err
	}
	c, ok, err := HeadCell(table, column, pk, p)
	if err != nil {
		return Cell{}, false, proof.BatchProof{}, err
	}
	return c, ok, p, nil
}

// HeadCell is the cell a one-key proof of table.column.pk proves: its head
// version, a tombstone included, copied out of the proof's leaf; ok is
// false when the proof shows the key absent.
func HeadCell(table, column string, pk []byte, p proof.BatchProof) (Cell, bool, error) {
	if len(p.Found) != 1 || !p.Found[0] {
		return Cell{}, false, nil
	}
	ver, value, tomb, err := proof.DecodeVersion(p.Values[0])
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
func (s Store) ProveRangePK(table, column string, pkLo, pkHi []byte) ([]Cell, proof.RangeProof, error) {
	start, end := proof.RefRange(table, column, pkLo, pkHi)
	rp, err := s.Tree.ProveScan(start, end)
	if err != nil {
		return nil, proof.RangeProof{}, err
	}
	live, err := proof.LiveCells(rp.Entries)
	if err != nil {
		return nil, proof.RangeProof{}, err
	}
	return live, rp, nil
}

// LoadVersion loads a demoted version object from the store.
func LoadVersion(store cas.Store, table, column string, pk []byte, object hashutil.Digest) (Cell, error) {
	data, err := store.Get(object)
	if err != nil {
		return Cell{}, err
	}
	ver, value, tomb, err := proof.DecodeVersion(data)
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
