// Package inverted implements Spitz's inverted index (Section 5): for
// analytical queries, "the system uses an inverted index to quickly locate
// the rows to fetch data. Such an index uses the value recorded in each
// cell as index key and the universal key of the corresponding cell as
// value. ... for numeric type, the system uses a skip list to better
// support range query, whereas for string type, it uses a radix tree to
// reduce space consumption."
//
// The index is a volatile acceleration structure maintained next to the
// authenticated cell store; integrity still comes from the ledger, which
// proves every universal key the index surfaces (the processor "visits the
// ledger via the auditor, getting the proofs of the results").
package inverted

import (
	"bytes"
	"encoding/binary"
	"sort"
	"sync"

	"spitz/internal/cellstore"
	"spitz/internal/radix"
	"spitz/internal/skiplist"
)

// Posting identifies one cell occurrence of an indexed value.
type Posting struct {
	PK      []byte
	Version uint64
}

// postingList is kept sorted by (PK, Version) for deterministic output and
// binary-search removal.
type postingList struct {
	items []Posting
}

func (pl *postingList) add(p Posting) {
	i := sort.Search(len(pl.items), func(i int) bool { return !less(pl.items[i], p) })
	if i < len(pl.items) && equal(pl.items[i], p) {
		return
	}
	pl.items = append(pl.items, Posting{})
	copy(pl.items[i+1:], pl.items[i:])
	pl.items[i] = p
}

func (pl *postingList) remove(p Posting) bool {
	i := sort.Search(len(pl.items), func(i int) bool { return !less(pl.items[i], p) })
	if i >= len(pl.items) || !equal(pl.items[i], p) {
		return false
	}
	pl.items = append(pl.items[:i], pl.items[i+1:]...)
	return true
}

func less(a, b Posting) bool {
	if c := bytes.Compare(a.PK, b.PK); c != 0 {
		return c < 0
	}
	return a.Version < b.Version
}

func equal(a, b Posting) bool {
	return a.Version == b.Version && bytes.Equal(a.PK, b.PK)
}

// headEntry remembers the latest indexed state of one (column, pk) so a
// newer version — including a tombstone, which carries no value of its
// own — can find and remove the posting it supersedes.
type headEntry struct {
	value     []byte
	version   uint64
	tombstone bool
}

// column holds the two per-type structures for one (table, column).
type column struct {
	numeric *skiplist.List[*postingList]
	strings *radix.Tree[*postingList]
	head    map[string]headEntry
}

// index inserts a posting under value into the appropriate structure.
func (col *column) index(p Posting, value []byte) {
	if n, ok := DecodeNumeric(value); ok {
		pl, found := col.numeric.Get(n)
		if !found {
			pl = &postingList{}
			col.numeric.Put(n, pl)
		}
		pl.add(p)
		return
	}
	pl, found := col.strings.Get(value)
	if !found {
		pl = &postingList{}
		col.strings.Put(append([]byte(nil), value...), pl)
	}
	pl.add(p)
}

// unindex removes a posting filed under value, deleting emptied keys.
func (col *column) unindex(p Posting, value []byte) {
	if n, ok := DecodeNumeric(value); ok {
		if pl, found := col.numeric.Get(n); found {
			pl.remove(p)
			if len(pl.items) == 0 {
				col.numeric.Delete(n)
			}
		}
		return
	}
	if pl, found := col.strings.Get(value); found {
		pl.remove(p)
		if len(pl.items) == 0 {
			col.strings.Delete(value)
		}
	}
}

// Index is an inverted index over cell values, safe for concurrent use.
type Index struct {
	mu   sync.RWMutex
	cols map[string]*column
}

// New returns an empty index.
func New() *Index {
	return &Index{cols: make(map[string]*column)}
}

func colKey(table, col string) string { return table + "\x00" + col }

func (ix *Index) column(table, col string) *column {
	key := colKey(table, col)
	c, ok := ix.cols[key]
	if !ok {
		c = &column{
			numeric: skiplist.New[*postingList](int64(len(ix.cols)) + 1),
			strings: &radix.Tree[*postingList]{},
			head:    make(map[string]headEntry),
		}
		ix.cols[key] = c
	}
	return c
}

// DecodeNumeric interprets an 8-byte big-endian cell value as a number.
// ok is false for values of other lengths, which are indexed as strings.
func DecodeNumeric(value []byte) (uint64, bool) {
	if len(value) != 8 {
		return 0, false
	}
	return binary.BigEndian.Uint64(value), true
}

// EncodeNumeric produces the canonical 8-byte form of a numeric value.
func EncodeNumeric(v uint64) []byte {
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, v)
	return out
}

// Add indexes a cell, superseding whatever the index previously held for
// the same (column, pk): an updated value moves the posting, and a
// tombstone removes the prior posting (a deleted row must not be surfaced
// by value lookups). Versions below or equal to the one already indexed
// for the pk are ignored as stale replays, so commit-path maintenance and
// log replay can overlap safely.
func (ix *Index) Add(c cellstore.Cell) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	col := ix.column(c.Table, c.Column)
	pk := string(c.PK)
	prev, had := col.head[pk]
	if had && c.Version <= prev.version {
		return // stale replay of an already indexed or superseded version
	}
	if had && !prev.tombstone {
		col.unindex(Posting{PK: []byte(pk), Version: prev.version}, prev.value)
	}
	col.head[pk] = headEntry{
		value:     append([]byte(nil), c.Value...),
		version:   c.Version,
		tombstone: c.Tombstone,
	}
	if c.Tombstone {
		return // nothing to index; the prior posting is gone now
	}
	col.index(Posting{PK: append([]byte(nil), c.PK...), Version: c.Version}, c.Value)
}

// LookupEqual returns the postings of cells whose value equals value.
func (ix *Index) LookupEqual(table, colName string, value []byte) []Posting {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	col, ok := ix.cols[colKey(table, colName)]
	if !ok {
		return nil
	}
	if n, okNum := DecodeNumeric(value); okNum {
		if pl, found := col.numeric.Get(n); found {
			return clonePostings(pl.items)
		}
		return nil
	}
	if pl, found := col.strings.Get(value); found {
		return clonePostings(pl.items)
	}
	return nil
}

// LookupNumericRange returns postings of cells with numeric value in
// [lo, hi).
func (ix *Index) LookupNumericRange(table, colName string, lo, hi uint64) []Posting {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	col, ok := ix.cols[colKey(table, colName)]
	if !ok {
		return nil
	}
	var out []Posting
	col.numeric.AscendRange(lo, hi, func(_ uint64, pl *postingList) bool {
		out = append(out, clonePostings(pl.items)...)
		return true
	})
	return out
}

func clonePostings(in []Posting) []Posting {
	out := make([]Posting, len(in))
	copy(out, in)
	return out
}
