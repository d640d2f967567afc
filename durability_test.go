package spitz_test

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"

	"spitz"
)

// TestOpenDirCrashRecovery is the durability acceptance test: commit N
// blocks, drop the handle without a clean shutdown, reopen, and require
// the recovered digest to equal the pre-crash digest with every block
// readable.
func TestOpenDirCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := spitz.OpenDir(dir, spitz.Options{Sync: spitz.SyncAlways, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if _, err := db.Apply(fmt.Sprintf("write %d", i), []spitz.Put{
			{Table: "t", Column: "c", PK: []byte(fmt.Sprintf("pk%04d", i)), Value: []byte(fmt.Sprintf("v%04d", i))},
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := db.Digest()
	// Crash: abandon the handle. No Close, no flush beyond what
	// SyncAlways already guaranteed per commit.

	db2, err := spitz.OpenDir(dir, spitz.Options{Sync: spitz.SyncAlways, CheckpointInterval: -1})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db2.Close()
	if got := db2.Digest(); got != want {
		t.Fatalf("recovered digest %+v, want pre-crash %+v", got, want)
	}
	if db2.Height() != n {
		t.Fatalf("recovered height %d, want %d", db2.Height(), n)
	}
	for i := 0; i < n; i++ {
		v, err := db2.Get("t", "c", []byte(fmt.Sprintf("pk%04d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%04d", i) {
			t.Fatalf("block %d lost: %q, %v", i, v, err)
		}
		if _, err := db2.Block(uint64(i)); err != nil {
			t.Fatalf("header %d unreadable: %v", i, err)
		}
	}
	// Verified reads still prove against the pre-crash digest.
	res, err := db2.GetVerified("t", "c", []byte("pk0003"))
	if err != nil || !res.Found || res.Digest != want {
		t.Fatalf("verified read after recovery: found=%v digest=%+v err=%v", res.Found, res.Digest, err)
	}
}

// TestOpenDirCorruptedTailIsTruncated: a torn final WAL frame costs at
// most the torn commit, never the database.
func TestOpenDirCorruptedTailIsTruncated(t *testing.T) {
	dir := t.TempDir()
	db, err := spitz.OpenDir(dir, spitz.Options{Sync: spitz.SyncAlways, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Apply("w", []spitz.Put{
			{Table: "t", Column: "c", PK: []byte{byte(i)}, Value: []byte{byte(i)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the final WAL record the way a crash mid-write would.
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := spitz.OpenDir(dir, spitz.Options{Sync: spitz.SyncAlways, CheckpointInterval: -1})
	if err != nil {
		t.Fatalf("open over torn frame must not be fatal: %v", err)
	}
	defer db2.Close()
	if db2.Height() != 4 {
		t.Fatalf("height = %d, want 4 (only the torn block lost)", db2.Height())
	}
}

// TestOpenDirCheckpointAndReopen exercises the checkpoint + WAL-tail
// recovery path through the public API.
func TestOpenDirCheckpointAndReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := spitz.OpenDir(dir, spitz.Options{Sync: spitz.SyncAlways, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		db.Apply("w", []spitz.Put{{Table: "t", Column: "c", PK: []byte{byte(i)}, Value: []byte{byte(i)}}})
	}
	// Rewrite a pre-checkpoint cell so recovery must preserve real
	// multi-version history across the checkpoint boundary.
	db.Apply("rewrite", []spitz.Put{{Table: "t", Column: "c", PK: []byte{0}, Value: []byte{0xaa}}})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 12; i++ {
		db.Apply("w", []spitz.Put{{Table: "t", Column: "c", PK: []byte{byte(i)}, Value: []byte{byte(i)}}})
	}
	want := db.Digest()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := spitz.OpenDir(dir, spitz.Options{Sync: spitz.SyncAlways, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Digest(); got != want {
		t.Fatalf("digest %+v, want %+v", got, want)
	}
	for i := 0; i < 12; i++ {
		want := byte(i)
		if i == 0 {
			want = 0xaa
		}
		v, err := db2.Get("t", "c", []byte{byte(i)})
		if err != nil || v[0] != want {
			t.Fatalf("cell %d after reopen: %v, %v", i, v, err)
		}
	}
	// History crosses the checkpoint boundary (each head's chain is part
	// of the snapshot).
	hist, err := db2.History("t", "c", []byte{0})
	if err != nil || len(hist) != 2 {
		t.Fatalf("history after reopen: %d versions, %v (want 2)", len(hist), err)
	}
	if hist[0].Value[0] != 0xaa || hist[1].Value[0] != 0 {
		t.Fatalf("history order: %v", hist)
	}
}

// TestSnapshotRestorePreservesEverything is the satellite coverage for
// WriteSnapshot -> Restore: digest, history and inverted lookups must
// survive, and so must the options a later ResetFromSnapshot rebuilds the
// engine with. The one row is named for the one concurrency scheme, OCC
// validation at the commit gate.
func TestSnapshotRestorePreservesEverything(t *testing.T) {
	for _, mode := range []struct {
		name string
		mode spitz.Options
	}{
		{"occ", spitz.Options{MaintainInverted: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			db := spitz.Open(mode.mode)
			for i := 0; i < 6; i++ {
				if _, err := db.Apply("seed", []spitz.Put{
					{Table: "t", Column: "c", PK: []byte{byte(i)}, Value: []byte("shared")},
				}); err != nil {
					t.Fatal(err)
				}
			}
			// Rewrite one cell so it has real history and a stale posting.
			if _, err := db.Apply("rewrite", []spitz.Put{
				{Table: "t", Column: "c", PK: []byte{0}, Value: []byte("unique")},
			}); err != nil {
				t.Fatal(err)
			}
			// And one transactional commit for the txn path.
			tx := db.Begin()
			if err := tx.Put("t", "c", []byte{9}, []byte("shared")); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}

			var buf bytes.Buffer
			if err := db.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := spitz.Restore(mode.mode, &buf)
			if err != nil {
				t.Fatal(err)
			}

			if got, want := restored.Digest(), db.Digest(); got != want {
				t.Fatalf("digest %+v, want %+v", got, want)
			}
			wantHist, err := db.History("t", "c", []byte{0})
			if err != nil {
				t.Fatal(err)
			}
			gotHist, err := restored.History("t", "c", []byte{0})
			if err != nil {
				t.Fatal(err)
			}
			if len(gotHist) != len(wantHist) || len(gotHist) != 2 {
				t.Fatalf("history %d versions, want %d (and 2)", len(gotHist), len(wantHist))
			}
			for i := range gotHist {
				if !bytes.Equal(gotHist[i].Value, wantHist[i].Value) || gotHist[i].Version != wantHist[i].Version {
					t.Fatalf("history[%d] = %+v, want %+v", i, gotHist[i], wantHist[i])
				}
			}
			cells, err := restored.LookupEqual("t", "c", []byte("shared"))
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) != 6 { // pks 1..5 and 9; pk0 was rewritten away
				t.Fatalf("LookupEqual after restore = %d cells, want 6", len(cells))
			}
			if cells2, _ := restored.LookupEqual("t", "c", []byte("unique")); len(cells2) != 1 {
				t.Fatalf("LookupEqual(unique) = %d cells, want 1", len(cells2))
			}

			// A restored database keeps its options: resetting it from a
			// later snapshot rebuilds the engine with the inverted index.
			if _, err := db.Apply("later", []spitz.Put{
				{Table: "t", Column: "c", PK: []byte{7}, Value: []byte("later")},
			}); err != nil {
				t.Fatal(err)
			}
			buf.Reset()
			if err := db.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if err := restored.ResetFromSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if cells, err := restored.LookupEqual("t", "c", []byte("later")); err != nil || len(cells) != 1 {
				t.Fatalf("LookupEqual after ResetFromSnapshot = %d cells, %v; want 1", len(cells), err)
			}
		})
	}
}

// TestClientSnapshotRestore drives the operator checkpoint flow over the
// wire: snapshot a server, restore it into a second server, verify state.
func TestClientSnapshotRestore(t *testing.T) {
	db := seedDB(t, 20)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback networking: %v", err)
	}
	go db.Serve(ln)
	defer ln.Close()
	cl, err := spitz.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var snap bytes.Buffer
	if err := cl.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	// A fresh, empty in-memory server adopts the snapshot.
	db2 := spitz.Open(spitz.Options{})
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip(err)
	}
	go db2.Serve(ln2)
	defer ln2.Close()
	cl2, err := spitz.Dial("tcp", ln2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	d, err := cl2.Restore(snap.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if want := db.Digest(); d != want {
		t.Fatalf("restored digest %+v, want %+v", d, want)
	}
	// The DB handle behind the server sees the restored state too.
	if db2.Height() != db.Height() {
		t.Fatalf("restored height %d, want %d", db2.Height(), db.Height())
	}
	v, found, err := cl2.GetVerified("t", "c", []byte("pk0004"))
	if err != nil || !found || string(v) != "v0004" {
		t.Fatalf("verified read from restored server: %q %v %v", v, found, err)
	}

	// A tampered snapshot must be rejected.
	bad := append([]byte(nil), snap.Bytes()...)
	bad[len(bad)/2] ^= 0xff
	if _, err := cl2.Restore(bad); err == nil {
		t.Fatal("server accepted a tampered snapshot")
	}

	// Durable servers refuse restores outright.
	db3, err := spitz.OpenDir(t.TempDir(), spitz.Options{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	ln3, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip(err)
	}
	go db3.Serve(ln3)
	defer ln3.Close()
	cl3, err := spitz.Dial("tcp", ln3.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl3.Close()
	if _, err := cl3.Restore(snap.Bytes()); err == nil {
		t.Fatal("durable server accepted a restore")
	}
}

// TestOpenDirTransactionsAndSQL: the durable engine serves the full API
// surface (transactions, SQL, documents), and all of it survives reopen.
func TestOpenDirTransactionsAndSQL(t *testing.T) {
	dir := t.TempDir()
	db, err := spitz.OpenDir(dir, spitz.Options{Sync: spitz.SyncAlways, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO acct (pk, bal) VALUES ('alice', '100')"); err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if err := tx.Put("acct", "bal", []byte("bob"), []byte("50")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.PutDocument("docs", []byte("d1"), []byte(`{"a":"1","b":{"c":"2"}}`)); err != nil {
		t.Fatal(err)
	}
	want := db.Digest()

	db2, err := spitz.OpenDir(dir, spitz.Options{Sync: spitz.SyncAlways, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Digest(); got != want {
		t.Fatalf("digest %+v, want %+v", got, want)
	}
	res, err := db2.Exec("SELECT bal FROM acct WHERE pk = 'bob'")
	if err != nil || len(res.Rows) != 1 || string(res.Rows[0].Columns["bal"]) != "50" {
		t.Fatalf("sql after recovery: %+v, %v", res, err)
	}
	doc, ok, err := db2.GetDocument("docs", []byte("d1"))
	if err != nil || !ok {
		t.Fatalf("document after recovery: %v %v", ok, err)
	}
	if !bytes.Contains(doc, []byte(`"c":"2"`)) {
		t.Fatalf("document content lost: %s", doc)
	}
}

// TestOpenDirDiskStore is the durable acceptance path: commit,
// checkpoint, clean close, reopen — the recovered digest must match and
// the first verified read must prove against it without the engine
// having replayed the WAL or loaded a snapshot (the node store opens by
// root hash).
func TestOpenDirDiskStore(t *testing.T) {
	dir := t.TempDir()
	opts := spitz.Options{Sync: spitz.SyncAlways, CheckpointInterval: -1, NodeCacheMB: 4}
	db, err := spitz.OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if _, err := db.Apply(fmt.Sprintf("write %d", i), []spitz.Put{
			{Table: "t", Column: "c", PK: []byte(fmt.Sprintf("pk%04d", i)), Value: []byte(fmt.Sprintf("v%04d", i))},
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := db.Digest()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := spitz.OpenDir(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if got := db2.Digest(); got != want {
		t.Fatalf("reopened digest %+v, want %+v", got, want)
	}
	res, err := db2.GetVerified("t", "c", []byte("pk0007"))
	if err != nil || !res.Found || res.Digest != want {
		t.Fatalf("verified read after disk reopen: found=%v digest=%+v err=%v", res.Found, res.Digest, err)
	}
	v := spitz.NewVerifier()
	if err := v.Advance(res.Digest, spitz.ConsistencyProof{}); err != nil {
		t.Fatal(err)
	}
	if err := v.VerifyNow(res.Proof); err != nil {
		t.Fatalf("proof from disk-backed reopen failed client verification: %v", err)
	}
	// History and time travel read through the reopened store too.
	if _, err := db2.History("t", "c", []byte("pk0003")); err != nil {
		t.Fatalf("history after disk reopen: %v", err)
	}
	if _, ok, err := db2.GetAt(3, "t", "c", []byte("pk0003")); err != nil || !ok {
		t.Fatalf("time travel after disk reopen: ok=%v err=%v", ok, err)
	}
}

// TestOpenClusterDiskStore runs every shard on a small node cache and
// requires each shard's digest to survive checkpoint + reopen.
func TestOpenClusterDiskStore(t *testing.T) {
	dir := t.TempDir()
	opts := spitz.ClusterOptions{Shards: 3, Options: spitz.Options{Sync: spitz.SyncAlways,
		CheckpointInterval: -1, NodeCacheMB: 2}}
	db, err := spitz.OpenCluster(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := db.Apply(fmt.Sprintf("write %d", i), []spitz.Put{
			{Table: "t", Column: "c", PK: []byte(fmt.Sprintf("pk%04d", i)), Value: []byte(fmt.Sprintf("v%04d", i))},
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := db.ClusterDigest()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := spitz.OpenCluster(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if got := db2.ClusterDigest(); got.Root != want.Root {
		t.Fatalf("cluster root after reopen %s, want %s", got.Root, want.Root)
	}
	for i := 0; i < 30; i++ {
		v, err := db2.Get("t", "c", []byte(fmt.Sprintf("pk%04d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%04d", i) {
			t.Fatalf("pk%04d after reopen: %q, %v", i, v, err)
		}
	}
}

// TestClientRestoreDuringReads: Client is safe for concurrent use, Restore
// included — it resets the verifier that reads in flight are using, which
// the race detector checks, and a read after it verifies against the
// restored history.
func TestClientRestoreDuringReads(t *testing.T) {
	db := seedDB(t, 20)
	var snap bytes.Buffer
	if err := db.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback networking: %v", err)
	}
	go db.Serve(ln)
	defer ln.Close()
	cl, err := spitz.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// A read racing a restore may fail; what must not happen is
			// a data race on the verifier it runs on.
			cl.GetVerified("t", "c", []byte("pk0004"))
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := cl.Restore(snap.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	v, found, err := cl.GetVerified("t", "c", []byte("pk0004"))
	if err != nil || !found || string(v) != "v0004" {
		t.Fatalf("verified read after the restores: %q %v %v", v, found, err)
	}
}
