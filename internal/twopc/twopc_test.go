package twopc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"spitz/internal/txn"
	"spitz/internal/txn/tso"
)

func setup() (*Coordinator, *ShardParticipant, *ShardParticipant, *txn.MemStore, *txn.MemStore) {
	ts := tso.New(0)
	sa, sb := txn.NewMemStore(ts), txn.NewMemStore(ts)
	pa, pb := NewShardParticipant(sa), NewShardParticipant(sb)
	c := NewCoordinator(ts)
	c.Register("a", pa)
	c.Register("b", pb)
	return c, pa, pb, sa, sb
}

func TestCommitAcrossShards(t *testing.T) {
	c, _, _, sa, sb := setup()
	v, err := c.Execute([]Request{
		{Shard: "a", Writes: []txn.Write{{Key: []byte("x"), Value: []byte("1")}}},
		{Shard: "b", Writes: []txn.Write{{Key: []byte("y"), Value: []byte("2")}}},
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	// Each shard's store allocated its own commit version, above the
	// coordinator's timestamp, which no shard records.
	for _, sh := range []struct {
		store      *txn.MemStore
		key, value string
	}{{sa, "x", "1"}, {sb, "y", "2"}} {
		_, ver, _, _ := sh.store.ReadLatest([]byte(sh.key), ^uint64(0))
		if ver <= v {
			t.Fatalf("shard write of %q at v%d, want above the coordinator's v%d", sh.key, ver, v)
		}
		if got, at, ok, _ := sh.store.ReadLatest([]byte(sh.key), ver); !ok || string(got) != sh.value || at != ver {
			t.Fatalf("shard write of %q not readable at its own v%d", sh.key, ver)
		}
	}
	commits, aborts := c.Stats()
	if commits != 1 || aborts != 0 {
		t.Fatalf("stats = %d/%d", commits, aborts)
	}
}

func TestUnknownShard(t *testing.T) {
	c, _, _, _, _ := setup()
	if _, err := c.Execute([]Request{{Shard: "nope"}}); err == nil {
		t.Fatal("unknown shard accepted")
	}
}

func TestAbortRollsBackAllShards(t *testing.T) {
	c, pa, _, sa, sb := setup()
	// Hold a lock on shard a's key x via a prepared-but-unfinished txn.
	if err := pa.Prepare(999, Request{Writes: []txn.Write{{Key: []byte("x"), Value: []byte("held")}}}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Execute([]Request{
		{Shard: "a", Writes: []txn.Write{{Key: []byte("x"), Value: []byte("1")}}},
		{Shard: "b", Writes: []txn.Write{{Key: []byte("y"), Value: []byte("2")}}},
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("expected abort, got %v", err)
	}
	// Neither shard applied anything.
	if _, _, ok, _ := sa.ReadLatest([]byte("x"), ^uint64(0)); ok {
		t.Fatal("aborted write visible on shard a")
	}
	if _, _, ok, _ := sb.ReadLatest([]byte("y"), ^uint64(0)); ok {
		t.Fatal("aborted write visible on shard b")
	}
	// Shard b's lock must have been released: a retry succeeds after the
	// blocker aborts.
	pa.Abort(999)
	if _, err := c.Execute([]Request{
		{Shard: "a", Writes: []txn.Write{{Key: []byte("x"), Value: []byte("1")}}},
		{Shard: "b", Writes: []txn.Write{{Key: []byte("y"), Value: []byte("2")}}},
	}); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
}

func TestReadValidationAbort(t *testing.T) {
	c, pa, _, _, _ := setup()
	// Commit an initial value so lastWrite is nonzero.
	if _, err := c.Execute([]Request{{Shard: "a",
		Writes: []txn.Write{{Key: []byte("x"), Value: []byte("v1")}}}}); err != nil {
		t.Fatal(err)
	}
	// A transaction that read x at version 0 (stale) must abort.
	_, err := c.Execute([]Request{{Shard: "a",
		Reads:  map[string]uint64{"x": 0},
		Writes: []txn.Write{{Key: []byte("z"), Value: []byte("out")}}}})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("stale read committed: %v", err)
	}
	// Reading the current version succeeds.
	_, ver, _, _ := pa.ReadLatest([]byte("x"), ^uint64(0))
	if _, err := c.Execute([]Request{{Shard: "a",
		Reads:  map[string]uint64{"x": ver},
		Writes: []txn.Write{{Key: []byte("z"), Value: []byte("out")}}}}); err != nil {
		t.Fatalf("fresh read aborted: %v", err)
	}
}

func TestLocksReleasedAfterCommit(t *testing.T) {
	c, _, _, _, _ := setup()
	for i := 0; i < 5; i++ {
		if _, err := c.Execute([]Request{{Shard: "a",
			Writes: []txn.Write{{Key: []byte("same-key"), Value: []byte{byte(i)}}}}}); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

func TestPrepareConflictOnReadLock(t *testing.T) {
	_, pa, _, _, _ := setup()
	if err := pa.Prepare(1, Request{Writes: []txn.Write{{Key: []byte("k"), Value: []byte("v")}}}); err != nil {
		t.Fatal(err)
	}
	// Another txn reading the locked key must vote abort.
	err := pa.Prepare(2, Request{Reads: map[string]uint64{"k": 0}})
	if !errors.Is(err, txn.ErrConflict) {
		t.Fatalf("read of locked key prepared: %v", err)
	}
	pa.Abort(1)
}

// TestWriteConflictsWithReadLock: a transaction that read key k holds a
// shared lock until it resolves; a second transaction preparing a write
// of k must vote abort, or the first transaction's validated read could
// be overwritten before its commit point.
func TestWriteConflictsWithReadLock(t *testing.T) {
	c, pa, _, _, _ := setup()
	if _, err := c.Execute([]Request{{Shard: "a",
		Writes: []txn.Write{{Key: []byte("k"), Value: []byte("v0")}}}}); err != nil {
		t.Fatal(err)
	}
	_, ver, _, _ := pa.ReadLatest([]byte("k"), ^uint64(0))
	if err := pa.Prepare(10, Request{Reads: map[string]uint64{"k": ver}}); err != nil {
		t.Fatalf("reader prepare: %v", err)
	}
	err := pa.Prepare(11, Request{Writes: []txn.Write{{Key: []byte("k"), Value: []byte("v1")}}})
	if !errors.Is(err, txn.ErrConflict) {
		t.Fatalf("write under shared read lock prepared: %v", err)
	}
	// Once the reader resolves, the writer goes through.
	pa.Abort(10)
	if err := pa.Prepare(11, Request{Writes: []txn.Write{{Key: []byte("k"), Value: []byte("v1")}}}); err != nil {
		t.Fatalf("retry after reader resolved: %v", err)
	}
	pa.Abort(11)
}

// TestCoordinatorAbortAfterPartialPrepare: shard a prepares successfully,
// shard b votes abort on stale-read validation; the coordinator must
// roll shard a back, releasing its locks and applying nothing.
func TestCoordinatorAbortAfterPartialPrepare(t *testing.T) {
	c, _, pb, sa, _ := setup()
	// Make shard b's read stale.
	if _, err := c.Execute([]Request{{Shard: "b",
		Writes: []txn.Write{{Key: []byte("y"), Value: []byte("fresh")}}}}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Execute([]Request{
		{Shard: "a", Writes: []txn.Write{{Key: []byte("x"), Value: []byte("1")}}},
		{Shard: "b", Reads: map[string]uint64{"y": 0}, // stale: y was written above
			Writes: []txn.Write{{Key: []byte("z"), Value: []byte("2")}}},
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("partial prepare committed: %v", err)
	}
	if _, _, ok, _ := sa.ReadLatest([]byte("x"), ^uint64(0)); ok {
		t.Fatal("aborted write applied on prepared shard a")
	}
	// Shard a's write lock and shard b's read state released: both retry
	// paths succeed.
	_, ver, _, _ := pb.ReadLatest([]byte("y"), ^uint64(0))
	if _, err := c.Execute([]Request{
		{Shard: "a", Writes: []txn.Write{{Key: []byte("x"), Value: []byte("1")}}},
		{Shard: "b", Reads: map[string]uint64{"y": ver},
			Writes: []txn.Write{{Key: []byte("z"), Value: []byte("2")}}},
	}); err != nil {
		t.Fatalf("retry after rollback: %v", err)
	}
	_, aborts := c.Stats()
	if aborts != 1 {
		t.Fatalf("aborts = %d", aborts)
	}
}

// TestConcurrentContendedTransactions is the race-detector stress for the
// protocol layer itself: many goroutines run read-modify-write
// transactions that all contend on a small shared key set spanning both
// shards. Every increment that commits must be present in the final
// counts.
func TestConcurrentContendedTransactions(t *testing.T) {
	c, pa, pb, _, _ := setup()
	keys := []struct {
		shard string
		p     *ShardParticipant
		key   string
	}{
		{"a", pa, "k0"}, {"a", pa, "k1"}, {"b", pb, "k0"}, {"b", pb, "k1"},
	}
	for _, k := range keys {
		if _, err := c.Execute([]Request{{Shard: k.shard,
			Writes: []txn.Write{{Key: []byte(k.key), Value: enc(0)}}}}); err != nil {
			t.Fatal(err)
		}
	}

	var committed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				ka := keys[(g+i)%2]   // shard a key
				kb := keys[2+(g+i)%2] // shard b key
				av, aver, aok, err := ka.p.ReadLatest([]byte(ka.key), ^uint64(0))
				if err != nil || !aok {
					t.Errorf("read: %v", err)
					return
				}
				bv, bver, bok, err := kb.p.ReadLatest([]byte(kb.key), ^uint64(0))
				if err != nil || !bok {
					t.Errorf("read: %v", err)
					return
				}
				_, err = c.Execute([]Request{
					{Shard: ka.shard, Reads: map[string]uint64{ka.key: aver},
						Writes: []txn.Write{{Key: []byte(ka.key), Value: enc(dec(av) + 1)}}},
					{Shard: kb.shard, Reads: map[string]uint64{kb.key: bver},
						Writes: []txn.Write{{Key: []byte(kb.key), Value: enc(dec(bv) + 1)}}},
				})
				if err == nil {
					mu.Lock()
					committed += 2
					mu.Unlock()
				} else if !errors.Is(err, ErrAborted) {
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	var total int64
	for _, k := range keys {
		v, _, ok, _ := k.p.ReadLatest([]byte(k.key), ^uint64(0))
		if !ok {
			t.Fatalf("key %s/%s missing", k.shard, k.key)
		}
		total += int64(dec(v))
	}
	if total != committed {
		t.Fatalf("increments applied = %d, committed = %d (lost or phantom updates)", total, committed)
	}
	commits, aborts := c.Stats()
	t.Logf("contended stress: %d commits, %d aborts", commits, aborts)
	if commits == 0 {
		t.Fatal("nothing committed under contention")
	}
}

func enc(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

func dec(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

func TestCommitUnpreparedFails(t *testing.T) {
	_, pa, _, _, _ := setup()
	if err := pa.Commit(42); err == nil {
		t.Fatal("commit of unprepared txn succeeded")
	}
	if err := pa.Abort(42); err != nil {
		t.Fatal("abort of unknown txn should be a no-op")
	}
}

// The classic bank-transfer invariant: concurrent transfers between
// accounts on different shards preserve the total balance.
func TestMoneyConservation(t *testing.T) {
	c, pa, pb, _, _ := setup()
	put := func(shard string, key string, amount uint64) {
		buf := make([]byte, 8)
		binary.BigEndian.PutUint64(buf, amount)
		if _, err := c.Execute([]Request{{Shard: shard,
			Writes: []txn.Write{{Key: []byte(key), Value: buf}}}}); err != nil {
			t.Fatal(err)
		}
	}
	const accounts = 4
	for i := 0; i < accounts; i++ {
		put("a", fmt.Sprintf("acct%d", i), 1000)
		put("b", fmt.Sprintf("acct%d", i), 1000)
	}

	read := func(p *ShardParticipant, key string) (uint64, uint64) {
		v, ver, ok, _ := p.ReadLatest([]byte(key), ^uint64(0))
		if !ok {
			t.Fatalf("account %s missing", key)
		}
		return binary.BigEndian.Uint64(v), ver
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				src := fmt.Sprintf("acct%d", (g+i)%accounts)
				dst := fmt.Sprintf("acct%d", (g+i+1)%accounts)
				// Transfer 1 from shard a's src to shard b's dst.
				sv, sver := read(pa, src)
				dv, dver := read(pb, dst)
				if sv == 0 {
					continue
				}
				sbuf := make([]byte, 8)
				binary.BigEndian.PutUint64(sbuf, sv-1)
				dbuf := make([]byte, 8)
				binary.BigEndian.PutUint64(dbuf, dv+1)
				_, err := c.Execute([]Request{
					{Shard: "a", Reads: map[string]uint64{src: sver},
						Writes: []txn.Write{{Key: []byte(src), Value: sbuf}}},
					{Shard: "b", Reads: map[string]uint64{dst: dver},
						Writes: []txn.Write{{Key: []byte(dst), Value: dbuf}}},
				})
				if err != nil && !errors.Is(err, ErrAborted) {
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	var total uint64
	for i := 0; i < accounts; i++ {
		va, _ := read(pa, fmt.Sprintf("acct%d", i))
		vb, _ := read(pb, fmt.Sprintf("acct%d", i))
		total += va + vb
	}
	if total != 8000 {
		t.Fatalf("total balance = %d, want 8000 (money not conserved)", total)
	}
	commits, aborts := c.Stats()
	t.Logf("transfers: %d commits, %d aborts", commits, aborts)
	if commits == 0 {
		t.Fatal("no transfer committed")
	}
}
