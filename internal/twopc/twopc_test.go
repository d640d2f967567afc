package twopc_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"spitz/internal/cellstore"
	"spitz/internal/core"
	"spitz/internal/obs"
	"spitz/internal/twopc"
	"spitz/internal/txn/tso"
)

// setup registers two engines, shards "a" and "b", drawing versions from
// the coordinator's counter as a cluster's shards do.
func setup() (*twopc.Coordinator, *core.Engine, *core.Engine) {
	ts := tso.New(0)
	ea, eb := core.New(core.Options{Timestamps: ts}), core.New(core.Options{Timestamps: ts})
	c := twopc.NewCoordinator(ts)
	c.Register("a", ea)
	c.Register("b", eb)
	return c, ea, eb
}

// put is the write of value to key, every test's cell being t/c/key.
func put(key string, value []byte) []core.Put {
	return []core.Put{{Table: "t", Column: "c", PK: []byte(key), Value: value}}
}

// read is key's newest value and version on e, as the gate sees them.
func read(e *core.Engine, key string) ([]byte, uint64, bool) {
	v, ver, ok, err := e.Read("t", "c", []byte(key))
	if err != nil {
		panic(err)
	}
	return v, ver, ok
}

// reads is a read set of one key at version ver.
func reads(key string, ver uint64) map[string]uint64 {
	return map[string]uint64{string(cellstore.CellPrefix("t", "c", []byte(key))): ver}
}

// counted returns a func reporting the 2PC commits and aborts the
// coordinator's counters (spitz_twopc_*) recorded since counted was called.
func counted() func() (commits, aborts uint64) {
	outcomes := func() (uint64, uint64) {
		r := obs.Default
		return r.Counter("spitz_twopc_commits_total").Value(),
			r.Counter(`spitz_twopc_aborts_total{cause="conflict"}`).Value() + r.Counter(`spitz_twopc_aborts_total{cause="error"}`).Value()
	}
	c0, a0 := outcomes()
	return func() (uint64, uint64) {
		c, a := outcomes()
		return c - c0, a - a0
	}
}

func TestCommitAcrossShards(t *testing.T) {
	c, ea, eb := setup()
	stats := counted()
	v, err := c.Execute([]twopc.Request{
		{Shard: "a", Puts: put("x", []byte("1"))},
		{Shard: "b", Puts: put("y", []byte("2"))},
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	// Each shard allocated its own commit version, above the coordinator's
	// timestamp, which no shard records.
	for _, sh := range []struct {
		eng        *core.Engine
		key, value string
	}{{ea, "x", "1"}, {eb, "y", "2"}} {
		got, ver, ok := read(sh.eng, sh.key)
		if ver <= v {
			t.Fatalf("shard write of %q at v%d, want above the coordinator's v%d", sh.key, ver, v)
		}
		if !ok || string(got) != sh.value {
			t.Fatalf("shard write of %q = %q, %v", sh.key, got, ok)
		}
	}
	commits, aborts := stats()
	if commits != 1 || aborts != 0 {
		t.Fatalf("stats = %d/%d", commits, aborts)
	}
}

func TestUnknownShard(t *testing.T) {
	c, _, _ := setup()
	if _, err := c.Execute([]twopc.Request{{Shard: "nope"}}); err == nil {
		t.Fatal("unknown shard accepted")
	}
}

func TestAbortRollsBackAllShards(t *testing.T) {
	c, ea, eb := setup()
	// Hold a lock on shard a's key x via a prepared-but-unfinished txn.
	if err := ea.Prepare(999, "", nil, put("x", []byte("held"))); err != nil {
		t.Fatal(err)
	}
	_, err := c.Execute([]twopc.Request{
		{Shard: "a", Puts: put("x", []byte("1"))},
		{Shard: "b", Puts: put("y", []byte("2"))},
	})
	if !errors.Is(err, twopc.ErrAborted) || !errors.Is(err, core.ErrConflict) {
		t.Fatalf("expected an abort for a conflict, got %v", err)
	}
	// Neither shard applied anything.
	if _, _, ok := read(ea, "x"); ok {
		t.Fatal("aborted write visible on shard a")
	}
	if _, _, ok := read(eb, "y"); ok {
		t.Fatal("aborted write visible on shard b")
	}
	// Shard b's lock must have been released: a retry succeeds after the
	// blocker aborts.
	ea.Abort(999)
	if _, err := c.Execute([]twopc.Request{
		{Shard: "a", Puts: put("x", []byte("1"))},
		{Shard: "b", Puts: put("y", []byte("2"))},
	}); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
}

func TestReadValidationAbort(t *testing.T) {
	c, ea, _ := setup()
	// Commit an initial value so x has a version.
	if _, err := c.Execute([]twopc.Request{{Shard: "a", Puts: put("x", []byte("v1"))}}); err != nil {
		t.Fatal(err)
	}
	// A transaction that read x at version 0 (stale) must abort.
	_, err := c.Execute([]twopc.Request{{Shard: "a", Reads: reads("x", 0), Puts: put("z", []byte("out"))}})
	if !errors.Is(err, twopc.ErrAborted) || !errors.Is(err, core.ErrConflict) {
		t.Fatalf("stale read committed: %v", err)
	}
	// Reading the current version succeeds.
	_, ver, _ := read(ea, "x")
	if _, err := c.Execute([]twopc.Request{{Shard: "a", Reads: reads("x", ver), Puts: put("z", []byte("out"))}}); err != nil {
		t.Fatalf("fresh read aborted: %v", err)
	}
}

func TestLocksReleasedAfterCommit(t *testing.T) {
	c, _, _ := setup()
	for i := 0; i < 5; i++ {
		if _, err := c.Execute([]twopc.Request{{Shard: "a", Puts: put("same-key", []byte{byte(i)})}}); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

func TestPrepareConflictOnReadLock(t *testing.T) {
	_, ea, _ := setup()
	if err := ea.Prepare(1, "", nil, put("k", []byte("v"))); err != nil {
		t.Fatal(err)
	}
	// Another txn reading the locked key must vote abort.
	err := ea.Prepare(2, "", reads("k", 0), nil)
	if !errors.Is(err, core.ErrConflict) {
		t.Fatalf("read of locked key prepared: %v", err)
	}
	ea.Abort(1)
}

// TestWriteConflictsWithReadLock: a transaction that read key k holds a
// shared lock until it resolves; a second transaction preparing a write
// of k must vote abort, or the first transaction's validated read could
// be overwritten before its commit point.
func TestWriteConflictsWithReadLock(t *testing.T) {
	c, ea, _ := setup()
	if _, err := c.Execute([]twopc.Request{{Shard: "a", Puts: put("k", []byte("v0"))}}); err != nil {
		t.Fatal(err)
	}
	_, ver, _ := read(ea, "k")
	if err := ea.Prepare(10, "", reads("k", ver), nil); err != nil {
		t.Fatalf("reader prepare: %v", err)
	}
	err := ea.Prepare(11, "", nil, put("k", []byte("v1")))
	if !errors.Is(err, core.ErrConflict) {
		t.Fatalf("write under shared read lock prepared: %v", err)
	}
	// Once the reader resolves, the writer goes through.
	ea.Abort(10)
	if err := ea.Prepare(11, "", nil, put("k", []byte("v1"))); err != nil {
		t.Fatalf("retry after reader resolved: %v", err)
	}
	ea.Abort(11)
}

// TestPreparedKeysHoldOffPlainWrites: a prepared transaction's keys are
// held against every commit the engine admits, not only other prepares —
// a plain Apply of a key a prepared transaction read, or of one it will
// write, is refused with ErrConflict until it resolves, and so is a
// one-shard transaction that read a key the prepared one will write.
func TestPreparedKeysHoldOffPlainWrites(t *testing.T) {
	c, ea, _ := setup()
	if _, err := c.Execute([]twopc.Request{{Shard: "a", Puts: put("r", []byte("r0"))}}); err != nil {
		t.Fatal(err)
	}
	_, ver, _ := read(ea, "r")
	if err := ea.Prepare(7, "", reads("r", ver), put("w", []byte("w1"))); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"r", "w"} {
		if _, err := ea.Apply("blind", put(key, []byte("x"))); !errors.Is(err, core.ErrConflict) {
			t.Fatalf("Apply of %q under a prepared transaction: %v", key, err)
		}
	}
	if _, err := ea.Commit("TXN", reads("w", 0), put("z", []byte("z"))); !errors.Is(err, core.ErrConflict) {
		t.Fatalf("a read of a prepared write passed the gate: %v", err)
	}
	if err := ea.CommitPrepared(7); err != nil {
		t.Fatal(err)
	}
	if _, err := ea.Apply("blind", put("r", []byte("x"))); err != nil {
		t.Fatalf("Apply after the prepared transaction committed: %v", err)
	}
	if v, _, ok := read(ea, "w"); !ok || string(v) != "w1" {
		t.Fatalf("prepared write = %q, %v", v, ok)
	}
}

// TestCoordinatorAbortAfterPartialPrepare: shard a prepares successfully,
// shard b votes abort on stale-read validation; the coordinator must
// roll shard a back, releasing its locks and applying nothing.
func TestCoordinatorAbortAfterPartialPrepare(t *testing.T) {
	c, ea, eb := setup()
	stats := counted()
	// Make shard b's read stale.
	if _, err := c.Execute([]twopc.Request{{Shard: "b", Puts: put("y", []byte("fresh"))}}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Execute([]twopc.Request{
		{Shard: "a", Puts: put("x", []byte("1"))},
		{Shard: "b", Reads: reads("y", 0), // stale: y was written above
			Puts: put("z", []byte("2"))},
	})
	if !errors.Is(err, twopc.ErrAborted) {
		t.Fatalf("partial prepare committed: %v", err)
	}
	if _, _, ok := read(ea, "x"); ok {
		t.Fatal("aborted write applied on prepared shard a")
	}
	// Shard a's write lock and shard b's read state released: both retry
	// paths succeed.
	_, ver, _ := read(eb, "y")
	if _, err := c.Execute([]twopc.Request{
		{Shard: "a", Puts: put("x", []byte("1"))},
		{Shard: "b", Reads: reads("y", ver), Puts: put("z", []byte("2"))},
	}); err != nil {
		t.Fatalf("retry after rollback: %v", err)
	}
	_, aborts := stats()
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
	c, ea, eb := setup()
	stats := counted()
	keys := []struct {
		shard string
		e     *core.Engine
		key   string
	}{
		{"a", ea, "k0"}, {"a", ea, "k1"}, {"b", eb, "k0"}, {"b", eb, "k1"},
	}
	for _, k := range keys {
		if _, err := c.Execute([]twopc.Request{{Shard: k.shard, Puts: put(k.key, enc(0))}}); err != nil {
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
				av, aver, aok := read(ka.e, ka.key)
				bv, bver, bok := read(kb.e, kb.key)
				if !aok || !bok {
					t.Errorf("read: %v %v", aok, bok)
					return
				}
				_, err := c.Execute([]twopc.Request{
					{Shard: ka.shard, Reads: reads(ka.key, aver), Puts: put(ka.key, enc(dec(av)+1))},
					{Shard: kb.shard, Reads: reads(kb.key, bver), Puts: put(kb.key, enc(dec(bv)+1))},
				})
				if err == nil {
					mu.Lock()
					committed += 2
					mu.Unlock()
				} else if !errors.Is(err, twopc.ErrAborted) {
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	var total int64
	for _, k := range keys {
		v, _, ok := read(k.e, k.key)
		if !ok {
			t.Fatalf("key %s/%s missing", k.shard, k.key)
		}
		total += int64(dec(v))
	}
	if total != committed {
		t.Fatalf("increments applied = %d, committed = %d (lost or phantom updates)", total, committed)
	}
	commits, aborts := stats()
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
	_, ea, _ := setup()
	if err := ea.CommitPrepared(42); err == nil {
		t.Fatal("commit of unprepared txn succeeded")
	}
	ea.Abort(42) // a no-op for a transaction that never prepared
	if err := ea.Prepare(42, "", nil, put("k", []byte("v"))); err != nil {
		t.Fatalf("prepare after a no-op abort: %v", err)
	}
	ea.Abort(42)
}

// The classic bank-transfer invariant: concurrent transfers between
// accounts on different shards preserve the total balance.
func TestMoneyConservation(t *testing.T) {
	c, ea, eb := setup()
	stats := counted()
	deposit := func(shard string, key string, amount uint64) {
		if _, err := c.Execute([]twopc.Request{{Shard: shard, Puts: put(key, enc(amount))}}); err != nil {
			t.Fatal(err)
		}
	}
	const accounts = 4
	for i := 0; i < accounts; i++ {
		deposit("a", fmt.Sprintf("acct%d", i), 1000)
		deposit("b", fmt.Sprintf("acct%d", i), 1000)
	}

	balance := func(e *core.Engine, key string) (uint64, uint64) {
		v, ver, ok := read(e, key)
		if !ok {
			t.Errorf("account %s missing", key)
			return 0, ver
		}
		return dec(v), ver
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
				sv, sver := balance(ea, src)
				dv, dver := balance(eb, dst)
				if sv == 0 {
					continue
				}
				_, err := c.Execute([]twopc.Request{
					{Shard: "a", Reads: reads(src, sver), Puts: put(src, enc(sv-1))},
					{Shard: "b", Reads: reads(dst, dver), Puts: put(dst, enc(dv+1))},
				})
				if err != nil && !errors.Is(err, twopc.ErrAborted) {
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	var total uint64
	for i := 0; i < accounts; i++ {
		va, _ := balance(ea, fmt.Sprintf("acct%d", i))
		vb, _ := balance(eb, fmt.Sprintf("acct%d", i))
		total += va + vb
	}
	if total != 8000 {
		t.Fatalf("total balance = %d, want 8000 (money not conserved)", total)
	}
	commits, aborts := stats()
	t.Logf("transfers: %d commits, %d aborts", commits, aborts)
	if commits == 0 {
		t.Fatal("no transfer committed")
	}
}
