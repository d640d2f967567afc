// Package cellstore implements Spitz's virtual cell store (Section 5).
//
// Instead of a row or column store, Spitz "maps each cell to a universal
// key consisting of the column id, primary key, timestamp, and the hash of
// its value". Following ForkBase's multi-version layout, the store keeps
// one authenticated tree entry per cell — keyed by (table, column, primary
// key) — whose value is the cell's *head* (newest) version; superseded
// versions live on as out-of-band, content-addressed chain objects. The
// universal key is thereby realized physically: a version's content
// includes its timestamp and value, and the logical universal key
// (proof.EncodeKey) names it uniquely.
//
// This layout is what keeps Spitz's write path comparable to the plain
// immutable KVS (Figure 6(b)): an update rewrites one compact head entry
// and appends one small chain object, rather than growing the
// authenticated tree by one entry per version. Every version is committed
// by the head that superseded it, not by a block: each version names the
// content address of the one it replaced (proof.FlagLinked), so a cell's
// history is a hash chain hanging off its head entry, which the tree root
// commits. That covers a version folded into one batch with a later one,
// which no block's root has as a head.
package cellstore

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"slices"

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

// ---------------------------------------------------------------------------
// Store: query layer over an authenticated POS-tree snapshot

// Store is a read/write view of the cell store at one tree snapshot. A
// Store sees each cell's head version as of its snapshot, and the older
// versions down the chain its head entry links (History).
type Store struct {
	Tree *postree.Tree
}

// Apply persists a batch of cells and returns the Store of the new
// snapshot and how many versions it stored as chain objects. A cell's versions in one batch are applied in version order —
// at a tie the later batch position wins, and the earlier write is no
// version at all — and each new version names the one it replaced
// (linked): a replaced head's stored bytes become its chain object
// unchanged, and so does a version the batch itself replaces. The links
// are made inside the one tree pass (postree.Tree.ApplyFunc).
func (s Store) Apply(cells []Cell) (Store, int, error) {
	store, stored := s.Tree.Store(), 0
	refs := make([][]byte, len(cells))
	for i := range cells {
		refs[i] = CellPrefix(cells[i].Table, cells[i].Column, cells[i].PK)
	}
	latest := make(map[string]int, len(cells))
	var folded map[string][]Cell // a cell the batch writes more than once: its writes
	for i := range cells {
		ref := string(refs[i])
		j, ok := latest[ref]
		if !ok {
			latest[ref] = i
			continue
		}
		if folded == nil {
			folded = make(map[string][]Cell)
		}
		if folded[ref] == nil {
			folded[ref] = []Cell{cells[j]}
		}
		folded[ref] = append(folded[ref], cells[i])
		if cells[i].Version >= cells[j].Version {
			latest[ref] = i
		}
	}
	hash := func(enc []byte) hashutil.Digest { return hashutil.Sum(hashutil.DomainCell, enc) }
	put := func(enc []byte) hashutil.Digest { stored++; return store.PutOwned(hashutil.DomainCell, enc) }
	edits := make([]postree.Edit, 0, len(latest))
	for ref, i := range latest {
		value := proof.EncodeVersion(cells[i].Version, cells[i].Value, cells[i].Tombstone)
		if vs, ok := folded[ref]; ok {
			folded[ref] = versions(vs)
			value = chain(folded[ref], nil, hash)
		}
		edits = append(edits, postree.Edit{Key: refs[i], Value: value})
	}
	nt, err := s.Tree.ApplyFunc(edits, func(key, old, value []byte) []byte {
		pred := store.Put(hashutil.DomainCell, old)
		stored++
		vs, ok := folded[string(key)]
		if !ok {
			return linked(value, pred)
		}
		delete(folded, string(key)) // linked here; the others are stored below
		return chain(vs, &pred, put)
	})
	if err != nil {
		return Store{}, 0, err
	}
	for _, vs := range folded { // a cell the batch creates: the versions it replaced itself
		chain(vs, nil, put)
	}
	return Store{Tree: nt}, stored, nil
}

// versions sorts one cell's writes in a batch by version and keeps, of the
// writes at one version, the last.
func versions(vs []Cell) []Cell {
	slices.SortStableFunc(vs, func(a, b Cell) int { return cmp.Compare(a.Version, b.Version) })
	out := vs[:0]
	for i, c := range vs {
		if i+1 == len(vs) || vs[i+1].Version != c.Version {
			out = append(out, c)
		}
	}
	return out
}

// chain encodes one cell's versions, ascending, each naming the one before
// it and the first naming pred (nil: none), and returns the newest's
// encoding; keep turns each older one's encoding into the address the next
// names, storing it as a chain object or only hashing it.
func chain(vs []Cell, pred *hashutil.Digest, keep func([]byte) hashutil.Digest) []byte {
	var enc []byte
	for i, c := range vs {
		if i > 0 {
			d := keep(enc)
			pred = &d
		}
		enc = proof.EncodeVersion(c.Version, c.Value, c.Tombstone)
		if pred != nil {
			enc = linked(enc, *pred)
		}
	}
	return enc
}

// linked returns the unlinked encoding enc naming pred, the content address
// of the version it replaced (proof.FlagLinked): the head entry payload in
// the tree, and equally the chain object the version becomes when it is
// replaced in turn.
func linked(enc []byte, pred hashutil.Digest) []byte {
	out := make([]byte, 0, len(enc)+hashutil.DigestSize)
	out = append(out, enc[0]|proof.FlagLinked)
	out = append(out, pred[:]...)
	return append(out, enc[1:]...)
}

// Chain returns the versions a head entry replaced, newest first, as
// stored: each the chain object the one before it links, read by its
// content address.
func Chain(store cas.Store, head []byte) ([][]byte, error) {
	var out [][]byte
	for enc := head; ; {
		_, _, _, err := proof.DecodeVersion(enc)
		if err != nil {
			return nil, err
		}
		pred, linked := proof.Link(enc)
		if !linked {
			return out, nil
		}
		if enc, err = store.Get(pred); err != nil {
			return nil, err
		}
		out = append(out, enc)
	}
}

// History returns a cell's versions newest first, tombstones included: its
// head in this snapshot, then down its chain (Chain). It is empty for an
// absent cell.
func (s Store) History(table, column string, pk []byte) ([]Cell, error) {
	head, found, err := s.Tree.Get(CellPrefix(table, column, pk))
	if err != nil || !found {
		return nil, err
	}
	older, err := Chain(s.Tree.Store(), head)
	if err != nil {
		return nil, err
	}
	out := make([]Cell, 0, 1+len(older))
	for _, enc := range append([][]byte{head}, older...) {
		c, err := decodeCell(table, column, pk, enc)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// decodeCell is the cell table.column.pk at the encoded version enc, its
// key and value copied out.
func decodeCell(table, column string, pk []byte, enc []byte) (Cell, error) {
	ver, value, tomb, err := proof.DecodeVersion(enc)
	if err != nil {
		return Cell{}, err
	}
	return Cell{Table: table, Column: column, PK: append([]byte(nil), pk...),
		Version: ver, Value: append([]byte(nil), value...), Tombstone: tomb}, nil
}

// GetHead returns the head version of a cell in this snapshot.
func (s Store) GetHead(table, column string, pk []byte) (Cell, bool, error) {
	raw, found, err := s.Tree.Get(CellPrefix(table, column, pk))
	if err != nil || !found {
		return Cell{}, false, err
	}
	c, err := decodeCell(table, column, pk, raw)
	return c, err == nil, err
}

// GetLatest returns the head version if it is at or before asOf. A head
// newer than asOf reports not-found: an older version is read down the
// head's chain (History) or from an earlier ledger snapshot.
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
	c, err := decodeCell(table, column, pk, p.Values[0])
	return c, err == nil, err
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

// KeySuccessor returns the smallest key strictly greater than key.
func KeySuccessor(key []byte) []byte {
	out := make([]byte, len(key)+1)
	copy(out, key)
	return out
}
