// Package baseline emulates the commercial ledger database the paper
// benchmarks against (Section 6.1: "we implement a baseline system to
// emulate a commercial product based on the features described online").
//
// The design follows the QLDB-style architecture of Section 2.3: "newly
// inserted or modified records are collected into blocks and appended to a
// ledger implemented by a Merkle tree ... the appended blocks are
// materialized to indexed views for fast query processing." Reads are
// served from the materialized views; verification is a *separate* path
// that locates the record's journal block, loads and re-hashes the block
// body, and walks the journal's Merkle tree — the per-record decoupling of
// query processing from proof retrieval that Figures 6 and 7 price.
package baseline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"spitz/internal/cas"
	"spitz/internal/hashutil"
	"spitz/internal/mtree"
)

// RecordsPerBlock is the journal block capacity. Blocks are sealed when
// full (or explicitly via Seal); proofs are block-granular.
const RecordsPerBlock = 4096

// KV is one write in a batch.
type KV struct {
	Key   []byte
	Value []byte
}

// Record is one journal revision.
type Record struct {
	Key     []byte
	Value   []byte
	Version uint64
}

// Digest is the client-saved journal commitment.
type Digest struct {
	Size int
	Root hashutil.Digest
}

// DB is the baseline ledger database. Safe for concurrent use.
type DB struct {
	mu      sync.RWMutex
	store   cas.Store
	journal mtree.Tree
	bodies  []hashutil.Digest // sealed block bodies in the object store
	open    []Record          // records of the not-yet-sealed block
	current *pagedView        // key -> latest record (materialized view 1)
	history *pagedView        // key+version -> record (materialized view 2)
	version uint64
}

// New returns an empty baseline database (nil store creates an in-memory
// object store).
func New(store cas.Store) *DB {
	if store == nil {
		store = cas.NewMemory()
	}
	return &DB{store: store, current: newPagedView(), history: newPagedView()}
}

// Write commits a batch: records are appended to the journal's open block
// and both materialized views are updated and flushed to storage. This is
// the "maintaining multiple indexed views" cost of Section 6.2.1.
func (db *DB) Write(batch []KV) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.version++
	for _, kv := range batch {
		if len(db.open) >= RecordsPerBlock {
			db.sealLocked()
		}
		rec := Record{Key: kv.Key, Value: kv.Value, Version: db.version}
		blockSeq := uint64(len(db.bodies)) // the open block's future sequence
		idx := uint32(len(db.open))
		db.open = append(db.open, rec)
		revHash := revisionHash(rec)
		vr := viewRecord{Key: kv.Key, Value: kv.Value, Version: db.version,
			Block: blockSeq, Index: idx, Hash: revHash}
		if err := db.current.Put(vr); err != nil {
			return err
		}
		hk := historyKey(kv.Key, db.version)
		if err := db.history.Put(viewRecord{Key: hk, Value: kv.Value, Version: db.version,
			Block: blockSeq, Index: idx, Hash: revHash}); err != nil {
			return err
		}
	}
	if _, err := db.current.Flush(db.store); err != nil {
		return err
	}
	if _, err := db.history.Flush(db.store); err != nil {
		return err
	}
	return nil
}

// revisionHash commits to one journal revision; the views store it as row
// metadata, as the commercial service's views do.
func revisionHash(r Record) hashutil.Digest {
	var vbuf [8]byte
	binary.BigEndian.PutUint64(vbuf[:], r.Version)
	return hashutil.SumParts(hashutil.DomainJournal, r.Key, r.Value, vbuf[:])
}

// historyKey orders versions of one key adjacently, oldest first.
func historyKey(key []byte, version uint64) []byte {
	out := make([]byte, 0, len(key)+9)
	out = append(out, key...)
	out = append(out, 0x00)
	return binary.BigEndian.AppendUint64(out, version)
}

// sealLocked closes the open block: the body is serialized, stored, and
// committed as a journal Merkle leaf.
func (db *DB) sealLocked() {
	if len(db.open) == 0 {
		return
	}
	body := encodeBody(db.open)
	d := db.store.Put(hashutil.DomainJournal, body)
	db.bodies = append(db.bodies, d)
	db.journal.Append(mtree.LeafHash(body))
	db.open = nil
}

// Seal closes the current open block so that all committed records become
// provable. Clients call it (implicitly, via the service) before
// requesting proofs for recent writes.
func (db *DB) Seal() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.sealLocked()
}

// Digest returns the journal commitment a client saves.
func (db *DB) Digest() Digest {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return Digest{Size: db.journal.Size(), Root: db.journal.Root()}
}

// Get serves an unverified read from the current materialized view.
func (db *DB) Get(key []byte) ([]byte, bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rec, ok, err := db.current.Get(key)
	if err != nil || !ok {
		return nil, false, err
	}
	return rec.Value, true, nil
}

// Scan serves an unverified range query from the current view.
func (db *DB) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.current.Scan(start, end, func(r viewRecord) bool { return fn(r.Key, r.Value) })
}

// History returns all versions of a key, oldest first, from the history
// view.
func (db *DB) History(key []byte) ([]Record, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	prefix := append(append([]byte(nil), key...), 0x00)
	end := append(append([]byte(nil), key...), 0x01)
	var out []Record
	err := db.history.Scan(prefix, end, func(r viewRecord) bool {
		out = append(out, Record{Key: key, Value: append([]byte(nil), r.Value...), Version: r.Version})
		return true
	})
	return out, err
}

// Proof is a per-record integrity proof: the full journal block body plus
// the block's inclusion proof. Verification must re-hash the entire block
// body to recover the Merkle leaf — the block-granular pricing that makes
// Baseline-verify two orders of magnitude slower than Baseline in
// Figure 6(a).
type Proof struct {
	BlockSeq  uint64
	Index     uint32
	Body      []byte
	Inclusion mtree.InclusionProof
}

// ErrProofInvalid is returned when a baseline proof fails verification.
var ErrProofInvalid = errors.New("baseline: proof verification failed")

// VerifiedGet returns the latest record of a key together with its proof.
// Records still in the open block are made provable by sealing it first.
func (db *DB) VerifiedGet(key []byte) (Record, bool, Proof, error) {
	db.mu.Lock()
	rec, ok, err := db.current.Get(key)
	if err != nil || !ok {
		db.mu.Unlock()
		return Record{}, false, Proof{}, err
	}
	if rec.Block >= uint64(len(db.bodies)) {
		db.sealLocked()
	}
	p, err := db.proveLocked(rec)
	db.mu.Unlock()
	if err != nil {
		return Record{}, false, Proof{}, err
	}
	return Record{Key: rec.Key, Value: rec.Value, Version: rec.Version}, true, p, nil
}

// proveLocked assembles the per-record proof: fetch the block body from
// storage and the block's inclusion proof from the journal.
func (db *DB) proveLocked(rec viewRecord) (Proof, error) {
	if rec.Block >= uint64(len(db.bodies)) {
		return Proof{}, fmt.Errorf("baseline: record's block %d not sealed", rec.Block)
	}
	body, err := db.store.Get(db.bodies[rec.Block])
	if err != nil {
		return Proof{}, err
	}
	inc, err := db.journal.InclusionProof(int(rec.Block))
	if err != nil {
		return Proof{}, err
	}
	return Proof{BlockSeq: rec.Block, Index: rec.Index, Body: body, Inclusion: inc}, nil
}

// VerifiedScan returns the records in [start, end) each with its own
// per-record proof: unlike Spitz's unified index, "the retrieval on the
// proofs of resultant records ... must be processed by searching the
// digest in the ledger individually" (Section 6.2.2).
func (db *DB) VerifiedScan(start, end []byte) ([]Record, []Proof, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	var recs []viewRecord
	if err := db.current.Scan(start, end, func(r viewRecord) bool {
		recs = append(recs, viewRecord{Key: append([]byte(nil), r.Key...),
			Value: append([]byte(nil), r.Value...), Version: r.Version, Block: r.Block, Index: r.Index})
		return true
	}); err != nil {
		return nil, nil, err
	}
	for _, r := range recs {
		if r.Block >= uint64(len(db.bodies)) {
			db.sealLocked()
			break
		}
	}
	out := make([]Record, len(recs))
	proofs := make([]Proof, len(recs))
	for i, r := range recs {
		p, err := db.proveLocked(r)
		if err != nil {
			return nil, nil, err
		}
		out[i] = Record{Key: r.Key, Value: r.Value, Version: r.Version}
		proofs[i] = p
	}
	return out, proofs, nil
}

// Verify checks the proof: the block body must hash to the journal leaf
// the inclusion proof commits to under the client's digest, and the record
// at the claimed index must match. Re-hashing the body is the dominant
// cost, by design of the block-granular journal.
func (p Proof) Verify(d Digest, rec Record) error {
	if p.Inclusion.TreeSize != d.Size || p.Inclusion.Index != int(p.BlockSeq) {
		return ErrProofInvalid
	}
	leaf := mtree.LeafHash(p.Body) // rehash the full block body
	if err := p.Inclusion.Verify(d.Root, leaf); err != nil {
		return ErrProofInvalid
	}
	records, err := decodeBody(p.Body)
	if err != nil {
		return ErrProofInvalid
	}
	if int(p.Index) >= len(records) {
		return ErrProofInvalid
	}
	got := records[p.Index]
	if !bytes.Equal(got.Key, rec.Key) || !bytes.Equal(got.Value, rec.Value) || got.Version != rec.Version {
		return ErrProofInvalid
	}
	return nil
}

// ConsistencyProof lets clients advance their digest without re-trusting
// the server.
func (db *DB) ConsistencyProof(old Digest) (mtree.ConsistencyProof, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.journal.ConsistencyProof(old.Size, db.journal.Size())
}

// Blocks returns the number of sealed journal blocks.
func (db *DB) Blocks() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.bodies)
}

func encodeBody(records []Record) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(records)))
	for _, r := range records {
		buf = binary.AppendUvarint(buf, uint64(len(r.Key)))
		buf = append(buf, r.Key...)
		buf = binary.AppendUvarint(buf, uint64(len(r.Value)))
		buf = append(buf, r.Value...)
		buf = binary.AppendUvarint(buf, r.Version)
	}
	return buf
}

func decodeBody(data []byte) ([]Record, error) {
	cnt, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, errors.New("baseline: bad body count")
	}
	rest := data[k:]
	out := make([]Record, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		var r Record
		kl, k1 := binary.Uvarint(rest)
		if k1 <= 0 || uint64(len(rest)-k1) < kl {
			return nil, errors.New("baseline: bad body key")
		}
		r.Key = rest[k1 : k1+int(kl)]
		rest = rest[k1+int(kl):]
		vl, k2 := binary.Uvarint(rest)
		if k2 <= 0 || uint64(len(rest)-k2) < vl {
			return nil, errors.New("baseline: bad body value")
		}
		r.Value = rest[k2 : k2+int(vl)]
		rest = rest[k2+int(vl):]
		var k3 int
		r.Version, k3 = binary.Uvarint(rest)
		if k3 <= 0 {
			return nil, errors.New("baseline: bad body version")
		}
		rest = rest[k3:]
		out = append(out, r)
	}
	return out, nil
}
