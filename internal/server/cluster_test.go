package server

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

	"spitz/internal/core"
	"spitz/internal/durable"
	"spitz/internal/twopc"
	"spitz/internal/txn"
	"spitz/internal/wal"
)

func memCluster(t *testing.T, shards int) *Cluster {
	t.Helper()
	c, err := Open(Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// twoShardPKs returns two primary keys owned by different shards.
func twoShardPKs(c *Cluster) (pkA, pkB []byte) {
	pkA = []byte("acct000")
	for i := 1; ; i++ {
		pk := []byte(fmt.Sprintf("acct%03d", i))
		if c.ShardFor(pk) != c.ShardFor(pkA) {
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
	c := memCluster(t, 4)
	if c.Shards() != 4 {
		t.Fatalf("shards = %d", c.Shards())
	}
	for i := 0; i < 40; i++ {
		pk := []byte(fmt.Sprintf("user%02d", i))
		if _, err := c.Apply("seed", []core.Put{{Table: "t", Column: "c", PK: pk,
			Value: []byte(fmt.Sprintf("val%02d", i))}}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := 0; i < 40; i++ {
		pk := []byte(fmt.Sprintf("user%02d", i))
		v, err := c.Get("t", "c", pk)
		if err != nil || string(v) != fmt.Sprintf("val%02d", i) {
			t.Fatalf("read %d: %q %v", i, v, err)
		}
	}
	// Keys spread across shards, and only owning shards advanced.
	seen := map[int]bool{}
	for i := 0; i < 40; i++ {
		seen[c.ShardFor([]byte(fmt.Sprintf("user%02d", i)))] = true
	}
	if len(seen) < 2 {
		t.Fatal("all keys routed to one shard")
	}
}

func TestClusterCrossShardTransaction(t *testing.T) {
	c := memCluster(t, 3)
	pkA, pkB := twoShardPKs(c)
	// Seed both accounts atomically across shards.
	if _, err := c.Apply("seed", []core.Put{
		{Table: "bank", Column: "bal", PK: pkA, Value: enc64(100)},
		{Table: "bank", Column: "bal", PK: pkB, Value: enc64(100)},
	}); err != nil {
		t.Fatal(err)
	}
	// Transfer with read validation through the transaction API.
	tx := c.Begin()
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
	va, _ := c.Get("bank", "bal", pkA)
	vb, _ := c.Get("bank", "bal", pkB)
	if binary.BigEndian.Uint64(va) != 70 || binary.BigEndian.Uint64(vb) != 130 {
		t.Fatalf("balances = %d / %d", binary.BigEndian.Uint64(va), binary.BigEndian.Uint64(vb))
	}
	st := c.Stats()
	if st.Commits != 2 {
		t.Fatalf("commits = %d", st.Commits)
	}
}

func TestClusterStaleReadAborts(t *testing.T) {
	c := memCluster(t, 2)
	pk := []byte("hot-key")
	if _, err := c.Apply("seed", []core.Put{{Table: "t", Column: "c", PK: pk, Value: []byte("v0")}}); err != nil {
		t.Fatal(err)
	}
	// Read inside a transaction, write behind its back, then commit: the
	// stale read must abort the transaction on its shard.
	tx := c.Begin()
	if _, _, err := tx.Get("t", "c", pk); err != nil {
		t.Fatal(err)
	}
	tx.Put("t", "c2", pk, []byte("out"))
	if _, err := c.Apply("intruder", []core.Put{{Table: "t", Column: "c", PK: pk, Value: []byte("v1")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); !errors.Is(err, twopc.ErrAborted) {
		t.Fatalf("stale distributed read committed: %v", err)
	}
}

func TestClusterShardsHaveIndependentLedgers(t *testing.T) {
	c := memCluster(t, 2)
	if _, err := c.Apply("w", []core.Put{{Table: "t", Column: "c", PK: []byte("k1"), Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	si := c.ShardFor([]byte("k1"))
	other := (si + 1) % 2
	if c.Engine(si).Digest().Height == 0 {
		t.Fatal("owning shard ledger empty")
	}
	if c.Engine(other).Digest().Height != 0 {
		t.Fatal("non-owning shard ledger advanced")
	}
	// The cluster digest reflects both, bound under the combined root.
	d := c.Digest()
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
	c := memCluster(t, 8)
	for trial := 0; trial < 20; trial++ {
		tx := c.Begin()
		for i := 0; i < 64; i++ {
			tx.Put("t", "c", []byte(fmt.Sprintf("key-%d-%d", trial, i)), []byte("v"))
		}
		reqs := tx.requests("order-check")
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
	c, err := Open(Options{Shards: 4, MaintainInverted: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var puts []core.Put
	for i := 0; i < 60; i++ {
		val := []byte("even")
		if i%2 == 1 {
			val = []byte("odd")
		}
		puts = append(puts, core.Put{Table: "t", Column: "par", PK: []byte(fmt.Sprintf("pk%03d", i)), Value: val})
	}
	if _, err := c.Apply("seed", puts); err != nil {
		t.Fatal(err)
	}

	cells, err := c.RangePK("t", "par", []byte("pk010"), []byte("pk020"))
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

	odds, err := c.LookupEqual("t", "par", []byte("odd"))
	if err != nil {
		t.Fatal(err)
	}
	if len(odds) != 30 {
		t.Fatalf("lookup returned %d cells, want 30", len(odds))
	}

	// History merges across shards (only the owning shard contributes).
	pk := []byte("pk007")
	if _, err := c.Apply("update", []core.Put{{Table: "t", Column: "par", PK: pk, Value: []byte("flip")}}); err != nil {
		t.Fatal(err)
	}
	hist, err := c.History("t", "par", pk)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 || string(hist[0].Value) != "flip" {
		t.Fatalf("history = %+v", hist)
	}
}

func TestClusterVerifiedReadAndConsistency(t *testing.T) {
	c := memCluster(t, 3)
	if _, err := c.Apply("w1", []core.Put{{Table: "t", Column: "c", PK: []byte("alpha"), Value: []byte("1")}}); err != nil {
		t.Fatal(err)
	}
	old := c.Digest()
	si, res, err := c.GetVerified("t", "c", []byte("alpha"))
	if err != nil || !res.Found {
		t.Fatalf("verified read: %v %v", res.Found, err)
	}
	if si != c.ShardFor([]byte("alpha")) {
		t.Fatalf("verified read attributed to shard %d, owner is %d", si, c.ShardFor([]byte("alpha")))
	}
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
	if _, err := c.Apply("w2", []core.Put{{Table: "t", Column: "c", PK: []byte("beta"), Value: []byte("2")}}); err != nil {
		t.Fatal(err)
	}
	next := c.Digest()
	for i := range old.Shards {
		if old.Shards[i].Height == 0 {
			continue // trust-on-first-use entries carry empty proofs
		}
		p, err := c.Engine(i).ConsistencyProof(old.Shards[i].Height, next.Shards[i].Height)
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
	opts := Options{Shards: 3, Dir: dir, Sync: wal.SyncAlways, CheckpointInterval: -1}
	c, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := c.Apply(fmt.Sprintf("w%d", i), []core.Put{
			{Table: "t", Column: "c", PK: []byte(fmt.Sprintf("pk%03d", i)), Value: []byte(fmt.Sprintf("v%03d", i))},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// One cross-shard transaction for good measure.
	pkA, pkB := twoShardPKs(c)
	tx := c.Begin()
	tx.Put("x", "c", pkA, []byte("a"))
	tx.Put("x", "c", pkB, []byte("b"))
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := c.Digest()
	// Crash: abandon the handles without Close.

	c2, err := Open(Options{Dir: dir, Sync: wal.SyncAlways, CheckpointInterval: -1})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer c2.Close()
	if c2.Shards() != 3 {
		t.Fatalf("recovered %d shards, want 3 (manifest lost?)", c2.Shards())
	}
	got := c2.Digest()
	for i := range want.Shards {
		if got.Shards[i] != want.Shards[i] {
			t.Fatalf("shard %d digest %+v, want pre-crash %+v", i, got.Shards[i], want.Shards[i])
		}
	}
	if got.Root != want.Root {
		t.Fatalf("combined root changed across recovery")
	}
	for i := 0; i < 30; i++ {
		v, err := c2.Get("t", "c", []byte(fmt.Sprintf("pk%03d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("key %d lost: %q %v", i, v, err)
		}
	}
	// Writes continue above the recovered versions.
	if _, err := c2.Apply("post", []core.Put{{Table: "t", Column: "c", PK: []byte("new"), Value: []byte("nv")}}); err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}
}

func TestClusterShardCountMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Options{Shards: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := Open(Options{Shards: 4, Dir: dir}); err == nil {
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
	c, err := Open(Options{Dir: dir, CheckpointInterval: -1})
	if err == nil {
		c.Close()
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
	c := memCluster(t, 4)
	const accounts = 8
	var seed []core.Put
	for i := 0; i < accounts; i++ {
		seed = append(seed, core.Put{Table: "bank", Column: "bal",
			PK: []byte(fmt.Sprintf("acct%d", i)), Value: enc64(1000)})
	}
	if _, err := c.Apply("seed", seed); err != nil {
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
				tx := c.Begin()
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
				if _, err := tx.Commit(); err != nil && !errors.Is(err, twopc.ErrAborted) && !errors.Is(err, txn.ErrConflict) {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	var total uint64
	for i := 0; i < accounts; i++ {
		v, err := c.Get("bank", "bal", []byte(fmt.Sprintf("acct%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		total += binary.BigEndian.Uint64(v)
	}
	if total != accounts*1000 {
		t.Fatalf("total = %d, want %d (money not conserved)", total, accounts*1000)
	}
	st := c.Stats()
	t.Logf("stress: %d commits, %d aborts", st.Commits, st.Aborts)
	if st.Commits == 0 {
		t.Fatal("no transfer committed")
	}
}
