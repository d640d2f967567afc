package bench

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"

	"spitz/internal/bench/baseline"
	"spitz/internal/bench/kvs"
	"spitz/internal/bench/nonintrusive"
	"spitz/internal/bench/workload"
	"spitz/internal/cellstore"
	"spitz/internal/core"
	"spitz/internal/ledger"
	"spitz/internal/proof"
)

// system is one database under test. All five Figure 6 systems implement
// it; systems without verification return errNoVerify from the *Verified
// methods and are skipped for those series.
type system interface {
	Name() string
	Write(batch []workload.KeyValue) error
	WriteVerified(batch []workload.KeyValue) error
	Read(key []byte) error
	ReadVerified(key []byte) error
	Range(lo, hi []byte) (int, error)
	RangeVerified(lo, hi []byte) (int, error)
	// Seal makes all committed data provable and refreshes client digests;
	// called between the load and measurement phases.
	Seal() error
	Close()
}

var errNoVerify = errors.New("bench: system does not support verification")

// benchTable and benchColumn address all benchmark cells.
const (
	benchTable  = "bench"
	benchColumn = "v"
)

// ---------------------------------------------------------------------------
// Immutable KVS (the ceiling)

type kvsSystem struct {
	store *kvs.Store
}

func newKVSSystem() *kvsSystem { return &kvsSystem{store: kvs.New(nil)} }

func (s *kvsSystem) Name() string { return "Immutable KVS" }

func (s *kvsSystem) Write(batch []workload.KeyValue) error {
	kvb := make([]kvs.KV, len(batch))
	for i, kv := range batch {
		kvb[i] = kvs.KV{Key: kv.Key, Value: kv.Value}
	}
	return s.store.Apply(kvb)
}

func (s *kvsSystem) WriteVerified([]workload.KeyValue) error { return errNoVerify }

func (s *kvsSystem) Read(key []byte) error {
	_, found, err := s.store.Get(key)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("bench: kvs missing key %q", key)
	}
	return nil
}

func (s *kvsSystem) ReadVerified([]byte) error { return errNoVerify }

func (s *kvsSystem) Range(lo, hi []byte) (int, error) {
	n := 0
	err := s.store.Scan(lo, hi, func(_, _ []byte) bool { n++; return true })
	return n, err
}

func (s *kvsSystem) RangeVerified(lo, hi []byte) (int, error) { return 0, errNoVerify }

func (s *kvsSystem) Seal() error { return nil }
func (s *kvsSystem) Close()      {}

// ---------------------------------------------------------------------------
// Spitz (embedded engine; client-side verifier)

type spitzSystem struct {
	eng      *core.Engine
	verifier *proof.Verifier
}

func newSpitzSystem() *spitzSystem {
	return &spitzSystem{eng: core.New(core.Options{}), verifier: proof.NewVerifier()}
}

func (s *spitzSystem) Name() string { return "Spitz" }

func (s *spitzSystem) puts(batch []workload.KeyValue) []core.Put {
	puts := make([]core.Put, len(batch))
	for i, kv := range batch {
		puts[i] = core.Put{Table: benchTable, Column: benchColumn, PK: kv.Key, Value: kv.Value}
	}
	return puts
}

func (s *spitzSystem) Write(batch []workload.KeyValue) error {
	_, err := s.eng.Apply("bench write", s.puts(batch))
	return err
}

// WriteVerified commits the batch and then verifies it the way a Spitz
// client does (Section 5.3, deferred/batched): advance the digest with a
// consistency proof, check the new block's inclusion, and compare the
// block's recorded write-set hash against the locally computed one.
func (s *spitzSystem) WriteVerified(batch []workload.KeyValue) error {
	h, err := s.eng.Apply("bench write", s.puts(batch))
	if err != nil {
		return err
	}
	if err := s.syncDigest(); err != nil {
		return err
	}
	header, inc, err := s.eng.Ledger().ProveBlock(h.Height)
	if err != nil {
		return err
	}
	if err := s.verifier.VerifyBlock(header, inc); err != nil {
		return err
	}
	// Recompute the write-set hash from the submitted cells and compare
	// with the block body.
	cells := make([]cellstore.Cell, len(batch))
	for i, kv := range batch {
		cells[i] = cellstore.Cell{Table: benchTable, Column: benchColumn, PK: kv.Key,
			Version: header.Version, Value: kv.Value}
	}
	want := ledger.WriteSetHash(cells)
	body, err := s.eng.Ledger().Body(h.Height)
	if err != nil {
		return err
	}
	if len(body) != 1 || body[0].WriteHash != want {
		return errors.New("bench: spitz write-set hash mismatch")
	}
	return nil
}

func (s *spitzSystem) Read(key []byte) error {
	_, err := s.eng.Get(benchTable, benchColumn, key)
	return err
}

func (s *spitzSystem) ReadVerified(key []byte) error {
	res, err := s.eng.GetVerified(benchTable, benchColumn, key)
	if err != nil {
		return err
	}
	if !res.Found {
		return fmt.Errorf("bench: spitz missing key %q", key)
	}
	q := []ledger.BatchQuery{{Table: benchTable, Column: benchColumn, PK: key}}
	live, err := s.verifier.Check(&res.Proof, s.verifier.Digest(), q, 1, &proof.Pin{})
	if err != nil {
		return err
	}
	if len(live[0]) != 1 {
		return errors.New("bench: unexpected verified result")
	}
	return nil
}

func (s *spitzSystem) Range(lo, hi []byte) (int, error) {
	cells, err := s.eng.RangePK(benchTable, benchColumn, lo, hi)
	return len(cells), err
}

func (s *spitzSystem) RangeVerified(lo, hi []byte) (int, error) {
	q := []ledger.BatchQuery{{Table: benchTable, Column: benchColumn, PK: lo, PKHi: hi, Range: true}}
	res, err := s.eng.Verified(q[0], 0, nil)
	if err != nil {
		return 0, err
	}
	live, err := s.verifier.Check(&res.Proof, s.verifier.Digest(), q, 1, &proof.Pin{})
	if err != nil {
		return 0, err
	}
	return len(live[0]), nil
}

func (s *spitzSystem) Seal() error { return s.syncDigest() }
func (s *spitzSystem) Close()      {}

func (s *spitzSystem) syncDigest() error {
	cur := s.verifier.Digest()
	next := s.eng.Digest()
	if cur == next {
		return nil
	}
	cons, err := s.eng.ConsistencyProof(cur.Height, next.Height)
	if err != nil {
		return err
	}
	return s.verifier.Advance(next, cons)
}

// ---------------------------------------------------------------------------
// Baseline (QLDB-style emulation)

type baselineSystem struct {
	db *baseline.DB
}

func newBaselineSystem() *baselineSystem { return &baselineSystem{db: baseline.New(nil)} }

func (s *baselineSystem) Name() string { return "Baseline" }

func (s *baselineSystem) Write(batch []workload.KeyValue) error {
	kvb := make([]baseline.KV, len(batch))
	for i, kv := range batch {
		kvb[i] = baseline.KV{Key: kv.Key, Value: kv.Value}
	}
	return s.db.Write(kvb)
}

// WriteVerified writes, seals, and then retrieves and checks a per-record
// revision proof for every written record — the commercial service's
// documented verification interface (per-document digest proofs).
func (s *baselineSystem) WriteVerified(batch []workload.KeyValue) error {
	if err := s.Write(batch); err != nil {
		return err
	}
	s.db.Seal()
	d := s.db.Digest()
	// Within a batch, the last write of a key wins in the current view.
	last := make(map[string][]byte, len(batch))
	for _, kv := range batch {
		last[string(kv.Key)] = kv.Value
	}
	for _, kv := range batch {
		rec, ok, p, err := s.db.VerifiedGet(kv.Key)
		if err != nil {
			return err
		}
		if !ok || !bytes.Equal(rec.Value, last[string(kv.Key)]) {
			return errors.New("bench: baseline write not materialized")
		}
		if err := p.Verify(d, rec); err != nil {
			return err
		}
	}
	return nil
}

func (s *baselineSystem) Read(key []byte) error {
	_, found, err := s.db.Get(key)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("bench: baseline missing key %q", key)
	}
	return nil
}

func (s *baselineSystem) ReadVerified(key []byte) error {
	rec, ok, p, err := s.db.VerifiedGet(key)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("bench: baseline missing key %q", key)
	}
	return p.Verify(s.db.Digest(), rec)
}

func (s *baselineSystem) Range(lo, hi []byte) (int, error) {
	n := 0
	err := s.db.Scan(lo, hi, func(_, _ []byte) bool { n++; return true })
	return n, err
}

// RangeVerified retrieves per-record proofs for the whole interval: "the
// retrieval on the proofs of resultant records ... must be processed by
// searching the digest in the ledger individually" (Section 6.2.2).
func (s *baselineSystem) RangeVerified(lo, hi []byte) (int, error) {
	recs, proofs, err := s.db.VerifiedScan(lo, hi)
	if err != nil {
		return 0, err
	}
	d := s.db.Digest()
	for i := range recs {
		if err := proofs[i].Verify(d, recs[i]); err != nil {
			return 0, err
		}
	}
	return len(recs), nil
}

func (s *baselineSystem) Seal() error {
	s.db.Seal()
	return nil
}

func (s *baselineSystem) Close() {}

// ---------------------------------------------------------------------------
// Non-intrusive composition (Figure 3 / Figure 8)

type nonintrusiveSystem struct {
	sys *nonintrusive.System
}

func newNonintrusiveSystem() (*nonintrusiveSystem, error) {
	sys, err := nonintrusive.Deploy()
	if err != nil {
		return nil, err
	}
	return &nonintrusiveSystem{sys: sys}, nil
}

func (s *nonintrusiveSystem) Name() string { return "Non-intrusive" }

func (s *nonintrusiveSystem) Write(batch []workload.KeyValue) error {
	kvb := make([]nonintrusive.KV, len(batch))
	for i, kv := range batch {
		kvb[i] = nonintrusive.KV{PK: kv.Key, Value: kv.Value}
	}
	return s.sys.Write(kvb)
}

// WriteVerified performs the dual commit plus the client's digest refresh
// against the ledger service (one extra round trip).
func (s *nonintrusiveSystem) WriteVerified(batch []workload.KeyValue) error {
	if err := s.Write(batch); err != nil {
		return err
	}
	_, _, err := s.sys.ReadVerified(batch[len(batch)-1].Key)
	return err
}

func (s *nonintrusiveSystem) Read(key []byte) error {
	_, found, err := s.sys.Read(key)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("bench: non-intrusive missing key %q", key)
	}
	return nil
}

func (s *nonintrusiveSystem) ReadVerified(key []byte) error {
	_, found, err := s.sys.ReadVerified(key)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("bench: non-intrusive missing key %q", key)
	}
	return nil
}

func (s *nonintrusiveSystem) Range(lo, hi []byte) (int, error) {
	keys, _, err := s.sys.Scan(lo, hi)
	return len(keys), err
}

func (s *nonintrusiveSystem) RangeVerified(lo, hi []byte) (int, error) { return 0, errNoVerify }

func (s *nonintrusiveSystem) Seal() error {
	if len(probeKeys) == 0 {
		return nil
	}
	// Pin the digest by performing one verified read.
	_, _, err := s.sys.ReadVerified(probeKeys[0])
	return err
}

func (s *nonintrusiveSystem) Close() { s.sys.Close() }

// probeKeys lets Seal know one existing key; set by the loader.
var probeKeys [][]byte

// load writes all records into a system in batches and settles the heap
// so the following measurement does not pay the loader's garbage.
func load(s system, records []workload.KeyValue, batchSize int) error {
	for _, b := range workload.Batches(records, batchSize) {
		if err := s.Write(b); err != nil {
			return err
		}
	}
	if len(records) > 0 {
		probeKeys = [][]byte{records[0].Key}
	}
	if err := s.Seal(); err != nil {
		return err
	}
	runtime.GC()
	return nil
}
