package spitz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"spitz/internal/durable"
	"spitz/internal/twopc"
)

func memCluster(t *testing.T, shards int) *ClusterDB {
	t.Helper()
	db, err := OpenCluster("", ClusterOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// twoShardPKs returns two primary keys owned by different shards.
func twoShardPKs(db *ClusterDB) (pkA, pkB []byte) {
	pkA = []byte("acct000")
	for i := 1; ; i++ {
		pk := []byte(fmt.Sprintf("acct%03d", i))
		if db.ShardFor(pk) != db.ShardFor(pkA) {
			return pkA, pk
		}
	}
}

func enc64(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

func TestClusterRouting(t *testing.T) {
	db := memCluster(t, 4)
	if db.Shards() != 4 {
		t.Fatalf("shards = %d", db.Shards())
	}
	for i := 0; i < 40; i++ {
		pk := []byte(fmt.Sprintf("user%02d", i))
		if _, err := db.Apply("seed", []Put{{Table: "t", Column: "c", PK: pk,
			Value: []byte(fmt.Sprintf("val%02d", i))}}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := 0; i < 40; i++ {
		pk := []byte(fmt.Sprintf("user%02d", i))
		v, err := db.Get("t", "c", pk)
		if err != nil || string(v) != fmt.Sprintf("val%02d", i) {
			t.Fatalf("read %d: %q %v", i, v, err)
		}
	}
	// Keys spread across shards.
	seen := map[int]bool{}
	for i := 0; i < 40; i++ {
		seen[db.ShardFor([]byte(fmt.Sprintf("user%02d", i)))] = true
	}
	if len(seen) < 2 {
		t.Fatal("all keys routed to one shard")
	}
}

func TestClusterCrossShardTransaction(t *testing.T) {
	db := memCluster(t, 3)
	pkA, pkB := twoShardPKs(db)
	// Seed both accounts atomically across shards.
	if _, err := db.Apply("seed", []Put{
		{Table: "bank", Column: "bal", PK: pkA, Value: enc64(100)},
		{Table: "bank", Column: "bal", PK: pkB, Value: enc64(100)},
	}); err != nil {
		t.Fatal(err)
	}
	// Transfer with read validation through the transaction API.
	tx := db.Begin()
	av, ok, err := tx.Get("bank", "bal", pkA)
	if err != nil || !ok {
		t.Fatalf("read a: %v %v", ok, err)
	}
	bv, ok, err := tx.Get("bank", "bal", pkB)
	if err != nil || !ok {
		t.Fatalf("read b: %v %v", ok, err)
	}
	tx.Put("bank", "bal", pkA, enc64(binary.BigEndian.Uint64(av)-30))
	tx.Put("bank", "bal", pkB, enc64(binary.BigEndian.Uint64(bv)+30))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	va, _ := db.Get("bank", "bal", pkA)
	vb, _ := db.Get("bank", "bal", pkB)
	if binary.BigEndian.Uint64(va) != 70 || binary.BigEndian.Uint64(vb) != 130 {
		t.Fatalf("balances = %d / %d", binary.BigEndian.Uint64(va), binary.BigEndian.Uint64(vb))
	}
	if st := db.Stats(); st.Txns.Commits != 1 || st.Txns.Aborts != 0 {
		t.Fatalf("transactions = %+v, want the one commit", st.Txns)
	}
}

func TestClusterStaleReadAborts(t *testing.T) {
	db := memCluster(t, 2)
	pk := []byte("hot-key")
	if _, err := db.Apply("seed", []Put{{Table: "t", Column: "c", PK: pk, Value: []byte("v0")}}); err != nil {
		t.Fatal(err)
	}
	// Read inside a transaction, write behind its back, then commit: the
	// stale read must abort the transaction on its shard's gate.
	tx := db.Begin()
	if _, _, err := tx.Get("t", "c", pk); err != nil {
		t.Fatal(err)
	}
	tx.Put("t", "c2", pk, []byte("out"))
	if _, err := db.Apply("intruder", []Put{{Table: "t", Column: "c", PK: pk, Value: []byte("v1")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale distributed read committed: %v", err)
	}
}

func TestClusterShardsHaveIndependentLedgers(t *testing.T) {
	db := memCluster(t, 2)
	if _, err := db.Apply("w", []Put{{Table: "t", Column: "c", PK: []byte("k1"), Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	si := db.ShardFor([]byte("k1"))
	other := (si + 1) % 2
	if db.Engine(si).Digest().Height == 0 {
		t.Fatal("owning shard ledger empty")
	}
	if db.Engine(other).Digest().Height != 0 {
		t.Fatal("non-owning shard ledger advanced")
	}
	// The cluster digest reflects both, bound under the combined root.
	d := db.ClusterDigest()
	if len(d.Shards) != 2 || d.Shards[si].Height == 0 {
		t.Fatalf("cluster digest %+v", d)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterRequestsDeterministic covers the 2PC request-build order: a
// transaction touching many shards must emit its per-shard requests
// sorted by shard index, never in map iteration order.
func TestClusterRequestsDeterministic(t *testing.T) {
	db := memCluster(t, 8)
	for trial := 0; trial < 20; trial++ {
		tx := db.Begin()
		for i := 0; i < 64; i++ {
			tx.Put("t", "c", []byte(fmt.Sprintf("key-%d-%d", trial, i)), []byte("v"))
		}
		reqs := requests("order-check", touched(tx.reads, tx.writes), tx.reads, tx.writes)
		if len(reqs) < 2 {
			t.Fatalf("trial %d: want multi-shard txn, got %d requests", trial, len(reqs))
		}
		for i := 1; i < len(reqs); i++ {
			var prev, cur int
			fmt.Sscanf(reqs[i-1].Shard, "shard-%d", &prev)
			fmt.Sscanf(reqs[i].Shard, "shard-%d", &cur)
			if cur <= prev {
				t.Fatalf("trial %d: requests out of order: %s before %s", trial, reqs[i-1].Shard, reqs[i].Shard)
			}
		}
		tx.Abort()
	}
}

func TestClusterScatterGather(t *testing.T) {
	db, err := OpenCluster("", ClusterOptions{Shards: 4, Options: Options{MaintainInverted: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var puts []Put
	for i := 0; i < 60; i++ {
		val := []byte("even")
		if i%2 == 1 {
			val = []byte("odd")
		}
		puts = append(puts, Put{Table: "t", Column: "par", PK: []byte(fmt.Sprintf("pk%03d", i)), Value: val})
	}
	if _, err := db.Apply("seed", puts); err != nil {
		t.Fatal(err)
	}

	cells, err := db.RangePK("t", "par", []byte("pk010"), []byte("pk020"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 10 {
		t.Fatalf("range returned %d cells, want 10", len(cells))
	}
	for i := 1; i < len(cells); i++ {
		if string(cells[i-1].PK) >= string(cells[i].PK) {
			t.Fatalf("merged range not ordered: %q then %q", cells[i-1].PK, cells[i].PK)
		}
	}

	odds, err := db.LookupEqual("t", "par", []byte("odd"))
	if err != nil {
		t.Fatal(err)
	}
	if len(odds) != 30 {
		t.Fatalf("lookup returned %d cells, want 30", len(odds))
	}

	// History merges across shards (only the owning shard contributes).
	pk := []byte("pk007")
	if _, err := db.Apply("update", []Put{{Table: "t", Column: "par", PK: pk, Value: []byte("flip")}}); err != nil {
		t.Fatal(err)
	}
	hist, err := db.History("t", "par", pk)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 || string(hist[0].Value) != "flip" {
		t.Fatalf("history = %+v", hist)
	}
}

func TestClusterVerifiedReadAndConsistency(t *testing.T) {
	db := memCluster(t, 3)
	if _, err := db.Apply("w1", []Put{{Table: "t", Column: "c", PK: []byte("alpha"), Value: []byte("1")}}); err != nil {
		t.Fatal(err)
	}
	old := db.ClusterDigest()
	res, err := db.GetVerified("t", "c", []byte("alpha"))
	if err != nil || !res.Found {
		t.Fatalf("verified read: %v %v", res.Found, err)
	}
	si := db.ShardFor([]byte("alpha"))
	// The proof verifies against the owning shard's digest entry — and
	// against no other shard's.
	if err := res.Proof.Verify(old.Shards[si]); err != nil {
		t.Fatalf("proof fails against owning shard digest: %v", err)
	}
	for i := range old.Shards {
		if i != si {
			if err := res.Proof.Verify(old.Shards[i]); err == nil && old.Shards[i].Height > 0 {
				t.Fatalf("proof verified against wrong shard %d", i)
			}
		}
	}

	// Grow the ledger; consistency proofs connect old entries to new.
	if _, err := db.Apply("w2", []Put{{Table: "t", Column: "c", PK: []byte("beta"), Value: []byte("2")}}); err != nil {
		t.Fatal(err)
	}
	next := db.ClusterDigest()
	for i := range old.Shards {
		if old.Shards[i].Height == 0 {
			continue // trust-on-first-use entries carry empty proofs
		}
		p, err := db.Engine(i).ConsistencyProof(old.Shards[i].Height, next.Shards[i].Height)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Verify(old.Shards[i].Root, next.Shards[i].Root); err != nil {
			t.Fatalf("shard %d consistency: %v", i, err)
		}
	}
}

// TestClusterDurableRecovery is the shard-level durability test: a
// durable cluster killed without shutdown recovers every shard to its
// pre-crash digest.
func TestClusterDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	durOpts := Options{Sync: SyncAlways, CheckpointInterval: -1}
	db, err := OpenCluster(dir, ClusterOptions{Shards: 3, Options: durOpts})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := db.Apply(fmt.Sprintf("w%d", i), []Put{
			{Table: "t", Column: "c", PK: []byte(fmt.Sprintf("pk%03d", i)), Value: []byte(fmt.Sprintf("v%03d", i))},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// One cross-shard transaction for good measure.
	pkA, pkB := twoShardPKs(db)
	tx := db.Begin()
	tx.Put("x", "c", pkA, []byte("a"))
	tx.Put("x", "c", pkB, []byte("b"))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := db.ClusterDigest()
	// Crash: abandon the handles without Close.

	db2, err := OpenCluster(dir, ClusterOptions{Options: durOpts})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db2.Close()
	if db2.Shards() != 3 {
		t.Fatalf("recovered %d shards, want 3 (manifest lost?)", db2.Shards())
	}
	got := db2.ClusterDigest()
	for i := range want.Shards {
		if got.Shards[i] != want.Shards[i] {
			t.Fatalf("shard %d digest %+v, want pre-crash %+v", i, got.Shards[i], want.Shards[i])
		}
	}
	if got.Root != want.Root {
		t.Fatalf("combined root changed across recovery")
	}
	for i := 0; i < 30; i++ {
		v, err := db2.Get("t", "c", []byte(fmt.Sprintf("pk%03d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("key %d lost: %q %v", i, v, err)
		}
	}
	// Writes continue above the recovered versions.
	if _, err := db2.Apply("post", []Put{{Table: "t", Column: "c", PK: []byte("new"), Value: []byte("nv")}}); err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}
}

// TestClusterVersionsClimbAcrossReopen: a cluster's shards draw versions
// from one counter, and a reopened cluster's counter starts above every
// version any shard recovered, from a checkpoint or from its log tail —
// so a new commit on the shard that committed least still sorts after
// the busiest shard's last recovered block.
func TestClusterVersionsClimbAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Sync: SyncAlways, CheckpointInterval: -1}
	db, err := OpenCluster(dir, ClusterOptions{Shards: 2, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	busy, quiet := twoShardPKs(db)
	write := func(db *ClusterDB, pk []byte) {
		t.Helper()
		if _, err := db.Apply("w", []Put{{Table: "t", Column: "c", PK: pk, Value: []byte("v")}}); err != nil {
			t.Fatal(err)
		}
	}
	write(db, quiet)
	for i := 0; i < 20; i++ {
		write(db, busy)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		write(db, busy) // the log tail past the checkpoint
	}
	// Crash: abandon the handles without Close.

	db2, err := OpenCluster(dir, ClusterOptions{Options: opts})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db2.Close()
	var recovered uint64
	for i := 0; i < db2.Shards(); i++ {
		h, ok := db2.Engine(i).Ledger().Head()
		if !ok {
			t.Fatalf("shard %d recovered no block", i)
		}
		recovered = max(recovered, h.Version)
	}
	for _, pk := range [][]byte{quiet, busy} {
		write(db2, pk)
		h, _ := db2.Engine(db2.ShardFor(pk)).Ledger().Head()
		if h.Version <= recovered {
			t.Fatalf("shard %d committed version %d after reopen, not above the recovered %d",
				db2.ShardFor(pk), h.Version, recovered)
		}
	}
}

func TestClusterShardCountMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenCluster(dir, ClusterOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := OpenCluster(dir, ClusterOptions{Shards: 4}); err == nil {
		t.Fatal("reopening a 2-shard cluster as 4 shards must fail")
	}
}

// TestClusterRefusesMemoryStoreShards: a cluster whose shard directories
// hold memory-store databases (a MANIFEST naming a snapshot checkpoint,
// checkpoints/ and a WAL, no STORE marker) is refused by name, like a
// single-engine one, and the refusal leaves every file as it was.
func TestClusterRefusesMemoryStoreShards(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		clusterManifest: clusterMagic + "\nshards 2\n",
	}
	for i := 0; i < 2; i++ {
		shard := shardDirName(i)
		files[filepath.Join(shard, "MANIFEST")] = "spitz-manifest-v1\ncheckpoint ckpt-0000000000000001.snap\nheight 1\n"
		files[filepath.Join(shard, "checkpoints", "ckpt-0000000000000001.snap")] = "SPITZSNAP3"
		files[filepath.Join(shard, "wal", "00000000000000000001.wal")] = "\x00"
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := OpenCluster(dir, ClusterOptions{Options: Options{CheckpointInterval: -1}})
	if err == nil {
		db.Close()
		t.Fatal("a cluster of memory-store shards opened; want a refusal")
	}
	if !errors.Is(err, durable.ErrStoreVersion) || !strings.Contains(err.Error(), "memory-store database") {
		t.Fatalf("err = %v, want ErrStoreVersion naming a memory-store database", err)
	}
	n := 0
	if err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if got, err := os.ReadFile(path); err != nil || string(got) != files[rel] {
			t.Errorf("%s after the refused open: %q, %v (want %q)", rel, got, err, files[rel])
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(files) {
		t.Fatalf("%d files after the refused open, want %d", n, len(files))
	}
}

// TestClusterConcurrentCrossShardStress drives contended cross-shard
// transfers under the race detector: money is conserved and every
// shard's ledger stays consistent.
func TestClusterConcurrentCrossShardStress(t *testing.T) {
	db := memCluster(t, 4)
	const accounts = 8
	var seed []Put
	for i := 0; i < accounts; i++ {
		seed = append(seed, Put{Table: "bank", Column: "bal",
			PK: []byte(fmt.Sprintf("acct%d", i)), Value: enc64(1000)})
	}
	if _, err := db.Apply("seed", seed); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				src := []byte(fmt.Sprintf("acct%d", (g+i)%accounts))
				dst := []byte(fmt.Sprintf("acct%d", (g+i+3)%accounts))
				if string(src) == string(dst) {
					continue
				}
				tx := db.Begin()
				sv, ok, err := tx.Get("bank", "bal", src)
				if err != nil || !ok {
					t.Errorf("read src: %v %v", ok, err)
					return
				}
				dv, ok, err := tx.Get("bank", "bal", dst)
				if err != nil || !ok {
					t.Errorf("read dst: %v %v", ok, err)
					return
				}
				s, d := binary.BigEndian.Uint64(sv), binary.BigEndian.Uint64(dv)
				if s == 0 {
					tx.Abort()
					continue
				}
				tx.Put("bank", "bal", src, enc64(s-1))
				tx.Put("bank", "bal", dst, enc64(d+1))
				if _, err := tx.Commit(); err != nil && !errors.Is(err, twopc.ErrAborted) && !errors.Is(err, ErrConflict) {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	var total uint64
	for i := 0; i < accounts; i++ {
		v, err := db.Get("bank", "bal", []byte(fmt.Sprintf("acct%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		total += binary.BigEndian.Uint64(v)
	}
	if total != accounts*1000 {
		t.Fatalf("total = %d, want %d (money not conserved)", total, accounts*1000)
	}
	st := db.Stats().Txns
	t.Logf("stress: %d commits, %d aborts", st.Commits, st.Aborts)
	if st.Commits == 0 {
		t.Fatal("no transfer committed")
	}
}

// TestOptionsReachEveryShard: one Options value configures a durable
// database and every shard of a durable and an in-memory cluster alike.
// Each non-default setting is checked where it acts, on every engine.
func TestOptionsReachEveryShard(t *testing.T) {
	opts := Options{
		MaintainInverted:   true,
		MaxBatchTxns:       1,
		Sync:               SyncNever,
		CheckpointInterval: -1,
		WALSegmentSize:     4 << 10,
		NodeCacheMB:        1,
	}
	for _, tc := range []struct {
		name string
		open func(t *testing.T) *ClusterDB
	}{
		{"OpenDir", func(t *testing.T) *ClusterDB {
			db, err := OpenDir(t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db.ClusterDB
		}},
		{"durable 2-shard cluster", func(t *testing.T) *ClusterDB {
			db, err := OpenCluster(t.TempDir(), ClusterOptions{Shards: 2, Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			return db
		}},
		{"memory 2-shard cluster", func(t *testing.T) *ClusterDB {
			db, err := OpenCluster("", ClusterOptions{Shards: 2, Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			return db
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := tc.open(t)
			for i, sh := range db.shards {
				eng := db.Engine(i)
				const writers, each = 8, 16
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for j := 0; j < each; j++ {
							pk := []byte(fmt.Sprintf("w%d-%02d", w, j))
							if _, err := eng.Apply("load", []Put{{Table: "t", Column: "c", PK: pk,
								Value: []byte(strings.Repeat("v", 100))}}); err != nil {
								t.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				if st := eng.BatchStats(); st.MaxTxns != 1 || st.Txns != writers*each {
					t.Errorf("shard %d: %d txns, at most %d in one block; want %d, one per block (MaxBatchTxns)",
						i, st.Txns, st.MaxTxns, writers*each)
				}
				if cells, err := eng.LookupEqual("t", "c", []byte(strings.Repeat("v", 100))); err != nil || len(cells) != writers*each {
					t.Errorf("shard %d: LookupEqual found %d cells, %v; want %d (MaintainInverted)", i, len(cells), err, writers*each)
				}
				if sh.dur == nil {
					continue
				}
				if ws := sh.dur.WALStats(); ws.Segments < 2 || ws.RetainedBytes > int64(ws.Segments)*2*opts.WALSegmentSize {
					t.Errorf("shard %d: %d WAL segments over %d bytes; want segments of about %d bytes (WALSegmentSize)",
						i, ws.Segments, ws.RetainedBytes, opts.WALSegmentSize)
				}
				if got := sh.dur.NodeStore().CacheStats().CacheBudget; got != int64(opts.NodeCacheMB)<<20 {
					t.Errorf("shard %d: node cache budget %d bytes (NodeCacheMB)", i, got)
				}
			}
		})
	}
}
