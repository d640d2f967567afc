package ledger

import (
	"fmt"
	"spitz/internal/proof"
	"sync"
	"sync/atomic"
	"testing"

	"spitz/internal/cas"
	"spitz/internal/cellstore"
)

func commitCells(t testing.TB, l *Ledger, version uint64, cells ...cellstore.Cell) BlockHeader {
	t.Helper()
	for i := range cells {
		cells[i].Version = version
	}
	h, err := l.Commit(version, []TxnSummary{{ID: version, Statement: "t"}}, cells)
	if err != nil {
		t.Fatalf("commit v%d: %v", version, err)
	}
	return h
}

// TestHeadProofVerifiesUnderConcurrentCommits: committers churn a hot key
// set while readers hammer ProveGetHead on the same keys; every returned
// proof must verify against exactly the digest returned with it — proof
// and digest are captured under one lock acquisition. Run with -race.
func TestHeadProofVerifiesUnderConcurrentCommits(t *testing.T) {
	l := New(cas.NewMemory())
	const keys = 8
	pk := func(i int) []byte { return []byte(fmt.Sprintf("k%02d", i)) }
	for i := 0; i < keys; i++ {
		commitCells(t, l, uint64(i+1), cellstore.Cell{Table: "t", Column: "c", PK: pk(i), Value: []byte("v0")})
	}

	var stop atomic.Bool
	var writerWg sync.WaitGroup
	writerErr := make(chan error, 1)
	writerWg.Add(1)
	go func() {
		defer writerWg.Done()
		for v := uint64(keys + 1); !stop.Load(); v++ {
			_, err := l.Commit(v, []TxnSummary{{ID: v, Statement: "w"}},
				[]cellstore.Cell{{Table: "t", Column: "c", PK: pk(int(v) % keys),
					Version: v, Value: []byte(fmt.Sprintf("v%d", v))}})
			if err != nil {
				select {
				case writerErr <- err:
				default:
				}
				return
			}
		}
	}()

	const readers = 4
	var readerWg sync.WaitGroup
	readerErrs := make([]error, readers)
	for r := 0; r < readers; r++ {
		readerWg.Add(1)
		go func(r int) {
			defer readerWg.Done()
			for i := 0; i < 3000; i++ {
				cell, ok, p, d, err := l.ProveGetHead("t", "c", pk(i%keys))
				if err != nil {
					readerErrs[r] = err
					return
				}
				if !ok {
					readerErrs[r] = fmt.Errorf("read %d: key missing", i)
					return
				}
				if err := p.Verify(d); err != nil {
					readerErrs[r] = fmt.Errorf("read %d: proof served with digest %d does not verify against it: %w",
						i, d.Height, err)
					return
				}
				if cell.Tombstone {
					readerErrs[r] = fmt.Errorf("read %d: unexpected tombstone", i)
					return
				}
			}
		}(r)
	}
	// Readers run a fixed count under full write churn; once they finish,
	// stop the writer.
	readerWg.Wait()
	stop.Store(true)
	writerWg.Wait()
	select {
	case err := <-writerErr:
		t.Fatalf("writer: %v", err)
	default:
	}
	for r, err := range readerErrs {
		if err != nil {
			t.Fatalf("reader %d: %v", r, err)
		}
	}
}

// TestProveBatchLedger exercises the server half of a deferred audit at
// the ledger level: receipts at an old digest are proven after further
// commits, the consistency pair links old and current, and the proof
// carries the old block's values.
func TestProveBatchLedger(t *testing.T) {
	l := New(cas.NewMemory())
	commitCells(t, l, 1,
		cellstore.Cell{Table: "t", Column: "c", PK: []byte("a"), Value: []byte("va")},
		cellstore.Cell{Table: "t", Column: "c", PK: []byte("b"), Value: []byte("vb")})
	at := l.Digest()
	// The ledger keeps growing after the reads were accepted.
	commitCells(t, l, 2, cellstore.Cell{Table: "t", Column: "c", PK: []byte("a"), Value: []byte("va2")})
	trusted := at

	res, err := l.ProveBatch(trusted, at, []BatchQuery{
		{Table: "t", Column: "c", PK: []byte("a")},
		{Table: "t", Column: "c", PK: []byte("missing")},
		{Table: "t", Column: "c", PK: []byte("a"), PKHi: nil, Range: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest.Height != 2 {
		t.Fatalf("digest height %d", res.Digest.Height)
	}
	if err := res.ConsAt.Verify(at.Root, res.Digest.Root); err != nil {
		t.Fatalf("consistency at->cur: %v", err)
	}
	if err := res.ConsTrusted.Verify(trusted.Root, res.Digest.Root); err != nil {
		t.Fatalf("consistency trusted->cur: %v", err)
	}
	if err := res.Proof.Verify(res.Digest); err != nil {
		t.Fatalf("batch proof: %v", err)
	}
	if res.Proof.Header.Height != at.Height-1 {
		t.Fatalf("proven block %d, want %d", res.Proof.Header.Height, at.Height-1)
	}
	pts := res.Proof.Point
	if pts == nil || len(pts.Keys) != 2 {
		t.Fatalf("expected 2 point proofs")
	}
	if !pts.Found[0] || pts.Found[1] {
		t.Fatalf("found flags wrong: %v", pts.Found)
	}
	_, v, _, err := proof.DecodeVersion(pts.Values[0])
	if err != nil || string(v) != "va" {
		t.Fatalf("proven value %q (the value AT the receipt digest, not the head)", v)
	}
	if len(res.Proof.Ranges) != 1 {
		t.Fatalf("expected 1 range proof")
	}

	// A receipt digest the ledger never produced is refused.
	bad := at
	bad.Height = 99
	if _, err := l.ProveBatch(trusted, bad, nil); err == nil {
		t.Fatal("proved a batch at an impossible digest")
	}
}
