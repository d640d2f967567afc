// Package ledger implements Spitz's ledger (Section 5): "a sequence of
// hashed blocks. Each block tracks the modification of the records, query
// statements, metadata and the root node of the indexes on the entire
// dataset. The block and the data can be verified using the Merkle tree
// structure built on top of the entire ledger."
//
// Per Section 6.1, "each block in the ledger stores a historical index
// instance, naturally composing a version of the ledger, and the nodes
// between instances can be shared" — here the index instance is the
// POS-tree root of the whole cell store at that block, and sharing comes
// from the content-addressed store. The ledger is the unified index:
// queries traverse the block's POS-tree, and that same traversal produces
// the integrity proof.
package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"spitz/internal/cas"
	"spitz/internal/cellstore"
	"spitz/internal/hashutil"
	"spitz/internal/mtree"
	"spitz/internal/postree"
	"spitz/internal/proof"
)

// TxnSummary records one transaction inside a block, binding the statement
// text and the digest of its write set into the block hash.
type TxnSummary struct {
	ID        uint64
	Statement string
	WriteHash hashutil.Digest
}

// BlockHeader is the hashed block metadata: proof.BlockHeader.
type BlockHeader = proof.BlockHeader

func encodeBody(txns []TxnSummary) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(txns)))
	for _, t := range txns {
		buf = binary.AppendUvarint(buf, t.ID)
		buf = binary.AppendUvarint(buf, uint64(len(t.Statement)))
		buf = append(buf, t.Statement...)
		buf = append(buf, t.WriteHash[:]...)
	}
	return buf
}

// WriteSetHash digests a transaction's write set for its TxnSummary: the
// universal keys of the written cell versions, in order, streamed into one
// hash without materializing each key.
func WriteSetHash(cells []cellstore.Cell) hashutil.Digest {
	h := hashutil.NewStream(hashutil.DomainTxn)
	buf := make([]byte, 0, 128)
	for _, c := range cells {
		buf = buf[:0]
		buf = append(buf, proof.EncodeKey(proof.UniversalKey(c))...)
		h.Part(buf)
	}
	return h.Sum()
}

// Digest is what a verifying client stores locally: proof.Digest.
type Digest = proof.Digest

// Ledger is the block sequence plus the commitment tree and the live cell
// store snapshot. Safe for concurrent use; commits are serialized.
type Ledger struct {
	commitMu sync.Mutex // serializes Commit; taken before mu
	mu       sync.RWMutex
	store    cas.Store
	headers  []BlockHeader
	commit   mtree.Tree
	cells    cellstore.Store
}

// New returns an empty ledger over the given object store.
func New(store cas.Store) *Ledger {
	return &Ledger{store: store, cells: cellstore.Store{Tree: postree.Empty(store)}}
}

// Height returns the number of committed blocks.
func (l *Ledger) Height() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return uint64(len(l.headers))
}

// Digest returns the client-verifiable digest of the current ledger.
func (l *Ledger) Digest() Digest {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.digestLocked()
}

func (l *Ledger) digestLocked() Digest {
	return Digest{Height: uint64(len(l.headers)), Root: l.commit.Root()}
}

// DigestAt returns the digest the ledger had at the given height, the
// number of blocks it then held: height <= Height().
func (l *Ledger) DigestAt(height uint64) (Digest, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if height > uint64(len(l.headers)) {
		return Digest{}, fmt.Errorf("ledger: digest at height %d outside ledger of height %d", height, len(l.headers))
	}
	return Digest{Height: height, Root: l.commit.RootAt(int(height))}, nil
}

// Head returns the latest block header; ok is false when empty.
func (l *Ledger) Head() (BlockHeader, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if len(l.headers) == 0 {
		return BlockHeader{}, false
	}
	return l.headers[len(l.headers)-1], true
}

// Header returns the block header at the given height (0-based).
func (l *Ledger) Header(height uint64) (BlockHeader, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if height >= uint64(len(l.headers)) {
		return BlockHeader{}, fmt.Errorf("ledger: height %d beyond head %d", height, len(l.headers))
	}
	return l.headers[height], nil
}

// Snapshot returns a read view of the cell store as of the given block,
// and the block's header (whose Version its reads take).
// This is the "historical index instance" stored in each block. It is the
// live store for the head and a tree sharing the live tree's node cache
// otherwise (snapshotLocked), never a private cold one: verified SELECTs
// and as-of reads take a snapshot per call.
func (l *Ledger) Snapshot(height uint64) (cellstore.Store, BlockHeader, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	h, snap, err := l.snapshotLocked(height)
	return snap, h, err
}

// Latest returns the current cell store snapshot and its block header.
// ok is false when the ledger is empty.
func (l *Ledger) Latest() (cellstore.Store, BlockHeader, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if len(l.headers) == 0 {
		return l.cells, BlockHeader{}, false
	}
	return l.cells, l.headers[len(l.headers)-1], true
}

// Commit appends a block containing the given transactions' cells. Cell
// versions must lie in (previous block version, version]: a snapshot read
// at a block's version then sees exactly the cells committed up to that
// block. Group commit batches several transactions (each with its own
// commit timestamp) into one block this way. It returns the new header.
func (l *Ledger) Commit(version uint64, txns []TxnSummary, cells []cellstore.Cell) (BlockHeader, error) {
	// commitMu makes this the only writer; mu is held to read the head and
	// again to publish the block, not across the tree apply in between —
	// the expensive part, which builds new nodes beside a snapshot readers
	// keep using. A digest or proof request, or the acknowledgement of the
	// previous block, therefore never waits out the next block's apply.
	l.commitMu.Lock()
	defer l.commitMu.Unlock()
	l.mu.RLock()
	cur, height := l.cells, uint64(len(l.headers))
	var prevVersion uint64
	var parent hashutil.Digest
	if height > 0 {
		prevVersion = l.headers[height-1].Version
		parent = l.headers[height-1].Hash()
	}
	l.mu.RUnlock()
	if version <= prevVersion {
		return BlockHeader{}, fmt.Errorf("ledger: version %d not above head version %d", version, prevVersion)
	}
	for i := range cells {
		if cells[i].Version <= prevVersion || cells[i].Version > version {
			return BlockHeader{}, fmt.Errorf("ledger: cell %d version %d outside block window (%d, %d]",
				i, cells[i].Version, prevVersion, version)
		}
	}
	next, _, err := cur.Apply(cells)
	if err != nil {
		return BlockHeader{}, err
	}
	h := BlockHeader{
		Height:    height,
		Parent:    parent,
		Version:   version,
		CellRoot:  next.Tree.Root(),
		CellCount: uint64(next.Tree.Count()),
		TxnCount:  uint64(len(txns)),
		BodyHash:  l.store.Put(hashutil.DomainStmt, encodeBody(txns)),
	}
	enc := h.Encode()
	l.store.Put(hashutil.DomainBlock, enc)
	leaf := mtree.LeafHash(enc)

	l.mu.Lock()
	defer l.mu.Unlock()
	l.headers = append(l.headers, h)
	l.commit.Append(leaf)
	l.cells = next
	return h, nil
}

// Body returns the transaction summaries of a block.
func (l *Ledger) Body(height uint64) ([]TxnSummary, error) {
	h, err := l.Header(height)
	if err != nil {
		return nil, err
	}
	data, err := l.store.Get(h.BodyHash)
	if err != nil {
		return nil, err
	}
	return decodeBody(data)
}

func decodeBody(data []byte) ([]TxnSummary, error) {
	cnt, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, errors.New("ledger: bad body count")
	}
	rest := data[k:]
	out := make([]TxnSummary, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		var t TxnSummary
		id, k1 := binary.Uvarint(rest)
		if k1 <= 0 {
			return nil, errors.New("ledger: bad txn id")
		}
		t.ID = id
		rest = rest[k1:]
		sl, k2 := binary.Uvarint(rest)
		if k2 <= 0 || uint64(len(rest)-k2) < sl+hashutil.DigestSize {
			return nil, errors.New("ledger: bad statement")
		}
		t.Statement = string(rest[k2 : k2+int(sl)])
		rest = rest[k2+int(sl):]
		copy(t.WriteHash[:], rest[:hashutil.DigestSize])
		rest = rest[hashutil.DigestSize:]
		out = append(out, t)
	}
	if len(rest) != 0 {
		return nil, errors.New("ledger: trailing body bytes")
	}
	return out, nil
}

// ConsistencyProof proves that the ledger of height from is a prefix of
// the ledger of height to, the current one or any before it (no history
// rewrite). A proof up to a height never changes as blocks are appended,
// so callers take it up to a digest they already hold, under no lock.
func (l *Ledger) ConsistencyProof(from, to uint64) (mtree.ConsistencyProof, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.commit.ConsistencyProof(int(from), int(to))
}

// blockInclusion builds the inclusion proof for the block at height under
// the current commitment root. Callers hold at least the read lock.
func (l *Ledger) blockInclusion(height uint64) (mtree.InclusionProof, error) {
	return l.commit.InclusionProof(int(height))
}

// History returns every version of a cell, newest first: the head
// followed by its chain.
func (l *Ledger) History(table, column string, pk []byte) ([]cellstore.Cell, error) {
	l.mu.RLock()
	cells := l.cells
	l.mu.RUnlock()
	return cells.History(table, column, pk)
}

// Chain returns the versions the head entry head replaced, newest first,
// as stored (cellstore.Chain): what a history proof carries beside the
// head's point proof.
func (l *Ledger) Chain(head []byte) ([][]byte, error) {
	return cellstore.Chain(l.store, head)
}
