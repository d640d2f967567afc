package ledger

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"spitz/internal/cas"
	"spitz/internal/cellstore"
	"spitz/internal/hashutil"
	"spitz/internal/mtree"
	"spitz/internal/posleaf"
	"spitz/internal/postree"
	"spitz/internal/proof"
)

// Snapshot persistence: a ledger (headers and every live
// content-addressed object) serializes to a stream and reloads into a
// fresh store. Objects are written with their hash domains and re-inserted
// through the content-addressed Put on load, so a corrupted snapshot
// cannot smuggle an object under a digest it does not hash to — the
// restored database is exactly as verifiable as the original. (A POS-tree
// leaf is addressed by what its table of group roots hashes up to; its
// entries are checked against the table before the Put.)

// The last character is the stream version. 4: a cell version names the
// version it replaced (proof.FlagLinked), so the chain objects are found by
// walking each head's chain and there is no version-index section. A
// version 3 stream's cells carry no links, and a version 1 or 2 stream's
// tree leaves hash differently, so each is refused by name rather than
// restored to other digests.
const snapshotMagic = "SPITZSNAP4"

// olderSnapshotMagics are the formats this build refuses.
var olderSnapshotMagics = map[string]bool{"SPITZSNAP1": true, "SPITZSNAP2": true, "SPITZSNAP3": true}

// ErrSnapshotVersion is returned by LoadSnapshot for a stream written in
// an older snapshot format.
var ErrSnapshotVersion = errors.New("ledger: unsupported snapshot format version")

// WriteSnapshot serializes the ledger: block headers, transaction bodies,
// every node of the latest cell-store instance, and every chain object
// down each of its heads' chains. Historical block index instances are *not*
// exported — after a restore, reads and proofs work at the restored head,
// and history continues from there (the documented durability trade-off:
// per-block time travel restarts at the snapshot point). It returns the
// digest of the ledger it wrote, which LoadSnapshot restores.
func (l *Ledger) WriteSnapshot(w io.Writer) (Digest, error) {
	// Capture a consistent view under the lock, then stream without it:
	// the headers are copied, the cell-store instance
	// is immutable, and the content-addressed store never mutates an
	// object in place — so commits proceed while a (potentially huge)
	// snapshot drains to disk.
	l.mu.RLock()
	headers := append([]BlockHeader(nil), l.headers...)
	cells, d := l.cells, l.digestLocked()
	l.mu.RUnlock()

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return d, err
	}

	// Headers.
	writeUvarint(bw, uint64(len(headers)))
	for _, h := range headers {
		writeBytes(bw, h.Encode())
	}

	// Objects: (domain, body) pairs. Collect transaction bodies, the
	// latest tree's nodes, and all chain objects.
	var objErr error
	emit := func(domain byte, body []byte) bool {
		if err := bw.WriteByte(1); err != nil {
			objErr = err
			return false
		}
		if err := bw.WriteByte(domain); err != nil {
			objErr = err
			return false
		}
		writeBytes(bw, body)
		return true
	}
	for _, h := range headers {
		body, err := l.store.Get(h.BodyHash)
		if err != nil {
			return d, fmt.Errorf("ledger: snapshot body %d: %w", h.Height, err)
		}
		if !emit(hashutil.DomainStmt, body) {
			return d, objErr
		}
	}
	if err := cells.Tree.WalkNodes(func(level int, body []byte) bool {
		domain := hashutil.DomainPOSLeaf
		if level > 0 {
			domain = hashutil.DomainPOSIndex
		}
		return emit(domain, body)
	}); err != nil {
		return d, err
	}
	if objErr != nil {
		return d, objErr
	}
	if err := cells.Tree.Scan(nil, nil, func(e proof.Entry) bool {
		chain, err := cellstore.Chain(l.store, e.Value)
		if err != nil {
			objErr = fmt.Errorf("ledger: snapshot chain object: %w", err)
			return false
		}
		for _, body := range chain {
			if !emit(hashutil.DomainCell, body) {
				return false
			}
		}
		return true
	}); err != nil {
		return d, err
	}
	if objErr != nil {
		return d, objErr
	}
	if err := bw.WriteByte(0); err != nil { // object stream terminator
		return d, err
	}
	return d, bw.Flush()
}

// LoadSnapshot reconstructs a ledger from a snapshot stream into store.
// Every object is re-inserted through content addressing and the block
// chain is revalidated, so a tampered snapshot is rejected.
func LoadSnapshot(store cas.Store, r io.Reader) (*Ledger, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, errors.New("ledger: not a spitz snapshot")
	}
	switch {
	case string(magic) == snapshotMagic:
	case olderSnapshotMagics[string(magic)]:
		return nil, fmt.Errorf("%w: stream is %s, this build reads %s (its cells hash differently; re-export from the source database)",
			ErrSnapshotVersion, magic, snapshotMagic)
	default:
		return nil, errors.New("ledger: not a spitz snapshot")
	}

	headerCount, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	headers := make([]BlockHeader, 0, headerCount)
	var parent hashutil.Digest
	for i := uint64(0); i < headerCount; i++ {
		raw, err := readBytes(br)
		if err != nil {
			return nil, err
		}
		h, err := proof.DecodeHeader(raw)
		if err != nil {
			return nil, err
		}
		if h.Height != i || h.Parent != parent {
			return nil, errors.New("ledger: snapshot block chain broken")
		}
		parent = h.Hash()
		headers = append(headers, h)
	}

	// Objects: re-Put under their domains; content addressing recomputes
	// and thereby verifies every digest. A leaf's address is computed from
	// its table of group roots, so its entries are checked against the
	// table first.
	for {
		tag, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if tag == 0 {
			break
		}
		domain, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		body, err := readBytes(br)
		if err != nil {
			return nil, err
		}
		if domain == hashutil.DomainPOSLeaf {
			l, err := posleaf.Parse(body)
			if err == nil {
				_, err = l.Verify()
			}
			if err != nil {
				return nil, fmt.Errorf("ledger: snapshot tree leaf: %w", err)
			}
		}
		store.Put(domain, body)
	}

	// Revalidate reachability: the block bodies, the latest tree and every
	// chain must resolve in the restored store.
	l := &Ledger{store: store, headers: headers}
	for _, h := range headers {
		l.commit.Append(mtree.LeafHash(h.Encode()))
		if !store.Has(h.BodyHash) {
			return nil, errors.New("ledger: snapshot missing block body")
		}
	}
	if len(headers) == 0 {
		l.cells = cellstore.Store{Tree: postree.Empty(store)}
		return l, nil
	}
	tree, err := postree.Load(store, headers[len(headers)-1].CellRoot)
	if err != nil {
		return nil, fmt.Errorf("ledger: snapshot cell tree: %w", err)
	}
	// A full count walk also proves every tree node is present.
	if _, err := tree.LiveBytes(); err != nil {
		return nil, fmt.Errorf("ledger: snapshot cell tree incomplete: %w", err)
	}
	// Every chain must reach its end through objects that hash to their
	// links, its versions falling (the verifier's own check, proof.Chain).
	var chainErr error
	if err := tree.Scan(nil, nil, func(e proof.Entry) bool {
		var chain [][]byte
		if chain, chainErr = cellstore.Chain(store, e.Value); chainErr == nil {
			_, chainErr = proof.Chain("", "", nil, e.Value, true, chain)
		}
		return chainErr == nil
	}); err != nil {
		return nil, fmt.Errorf("ledger: snapshot cell tree incomplete: %w", err)
	}
	if chainErr != nil {
		return nil, fmt.Errorf("ledger: snapshot version chain broken: %w", chainErr)
	}
	l.cells = cellstore.Store{Tree: tree}
	return l, nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeBytes(w *bufio.Writer, b []byte) {
	writeUvarint(w, uint64(len(b)))
	w.Write(b)
}

func readBytes(r *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > 1<<30 {
		return nil, errors.New("ledger: snapshot field too large")
	}
	out := make([]byte, n)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, err
	}
	return out, nil
}
