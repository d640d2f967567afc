package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"spitz/internal/cas"
	"spitz/internal/core"
	"spitz/internal/hashutil"
	"spitz/internal/ledger"
	"spitz/internal/wal"
)

func diskOpts(o Options) Options {
	o.Store = StoreDisk
	if o.NodeCacheMB == 0 {
		o.NodeCacheMB = 8
	}
	return noAutoCkpt(o)
}

func TestDiskStoreRoundTripReopen(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, diskOpts(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	if m.StoreKind() != StoreDisk || m.NodeStore() == nil {
		t.Fatalf("store kind = %v, node store = %v", m.StoreKind(), m.NodeStore())
	}
	commitN(t, m.Engine(), 0, 10)
	digest := m.Engine().Digest()
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir, diskOpts(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer m2.Close()
	// Root-addressed open: the checkpoint named everything, so no WAL
	// record needed replaying to reach the recovered digest.
	if n := m2.sinceCkpt.Load(); n != 0 {
		t.Fatalf("replayed %d WAL records after a clean checkpointed close", n)
	}
	if h := m2.CheckpointHeight(); h != 10 {
		t.Fatalf("recovered checkpoint height = %d, want 10", h)
	}
	if got := m2.Engine().Digest(); got != digest {
		t.Fatalf("digest after reopen = %+v, want %+v", got, digest)
	}
	res, err := m2.Engine().GetVerified("t", "c", []byte("k003"))
	if err != nil || !res.Found {
		t.Fatalf("verified read after reopen: found=%v err=%v", res.Found, err)
	}
	if res.Digest != digest {
		t.Fatalf("verified read digest %+v, want %+v", res.Digest, digest)
	}
	checkN(t, m2.Engine(), 10)

	// The reopened engine keeps committing, and history chains on.
	commitN(t, m2.Engine(), 10, 12)
	checkN(t, m2.Engine(), 12)
	if _, err := m2.Engine().ConsistencyProof(digest.Height, m2.Engine().Digest().Height); err != nil {
		t.Fatalf("consistency proof across reopen: %v", err)
	}
}

func TestDiskCrashWithoutCloseReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, diskOpts(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, m.Engine(), 0, 10)
	digest := m.Engine().Digest()
	// Crash: no Checkpoint, no Close. Nothing reached the node store —
	// recovery must come entirely from the WAL.

	m2, err := Open(dir, diskOpts(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer m2.Close()
	if got := m2.Engine().Digest(); got != digest {
		t.Fatalf("digest after crash recovery = %+v, want %+v", got, digest)
	}
	checkN(t, m2.Engine(), 10)
	commitN(t, m2.Engine(), 10, 12)
	checkN(t, m2.Engine(), 12)
}

func TestDiskCheckpointThenCrashReplaysTail(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, diskOpts(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, m.Engine(), 0, 6)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitN(t, m.Engine(), 6, 10)
	digest := m.Engine().Digest()
	// Crash without Close: blocks 6..9 exist only in the WAL.

	m2, err := Open(dir, diskOpts(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer m2.Close()
	if got := m2.Engine().Digest(); got != digest {
		t.Fatalf("digest = %+v, want %+v", got, digest)
	}
	if n := m2.sinceCkpt.Load(); n != 4 {
		t.Fatalf("replayed %d WAL records, want 4", n)
	}
	checkN(t, m2.Engine(), 10)
	if h := m2.CheckpointHeight(); h != 6 {
		t.Fatalf("checkpoint height = %d, want 6", h)
	}
}

func TestDiskHistorySurvivesCheckpointReopen(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, diskOpts(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := m.Engine().Apply("upd", []core.Put{
			{Table: "t", Column: "c", PK: []byte("k"), Value: []byte(fmt.Sprintf("gen%d", i))},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Engine().Apply("upd", []core.Put{
		{Table: "t", Column: "c", PK: []byte("k"), Value: []byte("gen4")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Demoted versions for gen0..gen2 came back through the VLOG (gen3's
	// demotion rides the WAL tail); both sources overlap and dedup.
	m2, err := Open(dir, diskOpts(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	hist, err := m2.Engine().History("t", "c", []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 5 {
		t.Fatalf("recovered history has %d versions, want 5", len(hist))
	}
	if string(hist[0].Value) != "gen4" || string(hist[4].Value) != "gen0" {
		t.Fatalf("history order wrong: newest %q oldest %q", hist[0].Value, hist[4].Value)
	}
}

func TestDiskPartialCheckpointRecoversPreviousRoot(t *testing.T) {
	for _, stage := range []string{"vlog", "flush"} {
		t.Run("crash-after-"+stage, func(t *testing.T) {
			dir := t.TempDir()
			m, err := Open(dir, diskOpts(Options{Sync: wal.SyncAlways}))
			if err != nil {
				t.Fatal(err)
			}
			commitN(t, m.Engine(), 0, 5)
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			commitN(t, m.Engine(), 5, 10)
			digest := m.Engine().Digest()
			m.ckptCrash = func(s string) bool { return s == stage }
			if err := m.Checkpoint(); !errors.Is(err, errCkptCrashed) {
				t.Fatalf("checkpoint = %v, want simulated crash", err)
			}
			// Crash: the manifest still points at height 5. Flushed-but-
			// unnamed nodes and duplicate VLOG entries are orphans the
			// replay deduplicates.

			m2, err := Open(dir, diskOpts(Options{Sync: wal.SyncAlways}))
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer m2.Close()
			if h := m2.CheckpointHeight(); h != 5 {
				t.Fatalf("checkpoint height = %d, want previous root at 5", h)
			}
			if got := m2.Engine().Digest(); got != digest {
				t.Fatalf("digest = %+v, want %+v", got, digest)
			}
			checkN(t, m2.Engine(), 10)
			// A full checkpoint now succeeds and the next reopen is clean.
			if err := m2.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if h := m2.CheckpointHeight(); h != 10 {
				t.Fatalf("post-recovery checkpoint height = %d, want 10", h)
			}
		})
	}
}

// TestDiskCheckpointFlushRacesCommits: the node store's Flush fsyncs
// outside its lock, so commits — and the spills they force through a
// 1 MiB cache — keep landing in the segment a checkpoint is flushing. A
// crash after any stage of that checkpoint, or none, recovers to the old
// root or the new one, never between, and the WAL replay on top of it
// reproduces the exact digest with every acknowledged commit.
func TestDiskCheckpointFlushRacesCommits(t *testing.T) {
	for _, stage := range []string{"vlog", "flush", "none"} {
		t.Run("crash-after-"+stage, func(t *testing.T) {
			dir := t.TempDir()
			opts := diskOpts(Options{Sync: wal.SyncAlways, NodeCacheMB: 1})
			m, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			commitN(t, m.Engine(), 0, 5)
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			m.ckptCrash = func(s string) bool { return s == stage }

			const warm = 30 // commits before the checkpoint starts: enough to have spilled
			stop, racing, done := make(chan struct{}), make(chan struct{}), make(chan int, 1)
			go func() {
				big := make([]byte, 2048)
				for n := 5; ; n++ {
					select {
					case <-stop:
						done <- n
						return
					default:
					}
					_, err := m.Engine().Apply(fmt.Sprintf("stmt-%d", n), []core.Put{
						{Table: "t", Column: "c", PK: []byte(fmt.Sprintf("k%03d", n)), Value: []byte(fmt.Sprintf("v%d", n))},
						{Table: "t", Column: "d", PK: []byte("shared"), Value: []byte(fmt.Sprintf("d%d", n))},
						{Table: "t", Column: "big", PK: []byte(fmt.Sprintf("k%03d", n)), Value: big},
					})
					if err != nil {
						t.Errorf("apply %d: %v", n, err)
						done <- n
						return
					}
					if n == 5+warm {
						close(racing)
					}
				}
			}()
			<-racing
			err = m.Checkpoint()
			close(stop)
			n := <-done
			if t.Failed() {
				return
			}
			if stage == "none" && err != nil || stage != "none" && !errors.Is(err, errCkptCrashed) {
				t.Fatalf("checkpoint = %v", err)
			}
			if cs := m.NodeStore().CacheStats(); cs.Spills == 0 {
				t.Fatalf("the racing commits never spilled: %+v", cs)
			}
			digest := m.Engine().Digest()

			// Crash: m is dropped without Close.
			m2, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer m2.Close()
			switch h := m2.CheckpointHeight(); {
			case stage != "none" && h != 5:
				t.Fatalf("checkpoint height = %d after a crashed checkpoint, want the previous root at 5", h)
			case stage == "none" && (h < 5+warm || h > uint64(n)):
				t.Fatalf("checkpoint height = %d, want the new root in [%d, %d]", h, 5+warm, n)
			}
			if got := m2.Engine().Digest(); got != digest {
				t.Fatalf("digest = %+v, want %+v", got, digest)
			}
			checkN(t, m2.Engine(), n)
			if err := m2.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDiskStoreMarkerIsAuthoritative(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, diskOpts(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, m.Engine(), 0, 3)
	digest := m.Engine().Digest()
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Asking for the memory store on a disk-store directory still opens
	// disk: the marker, not the flag, decides.
	m2, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways, Store: StoreMemory}))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.StoreKind() != StoreDisk {
		t.Fatalf("store kind = %v, want disk", m2.StoreKind())
	}
	if got := m2.Engine().Digest(); got != digest {
		t.Fatalf("digest = %+v, want %+v", got, digest)
	}
}

// TestOldFormatsRefusedByName: data written before tree leaves carried
// group digests hashes to other digests under this build. A disk store
// with the v1 or v2 marker and a memory-store directory whose checkpoint is
// a version-1 or version-2 snapshot are each refused with a format-version
// error naming the version found and the one this build reads — not
// opened to a different digest, and not reported as corruption — and the
// refusal leaves the directory as it was.
func TestOldFormatsRefusedByName(t *testing.T) {
	t.Run("disk store", func(t *testing.T) {
		dir := t.TempDir()
		m, err := Open(dir, diskOpts(Options{Sync: wal.SyncAlways}))
		if err != nil {
			t.Fatal(err)
		}
		commitN(t, m.Engine(), 0, 3)
		if err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		marker := filepath.Join(dir, storeMarkerName)
		if got, err := os.ReadFile(marker); err != nil || string(got) != "spitz-store-v3\ndisk\n" {
			t.Fatalf("a new disk store is marked %q, %v", got, err)
		}
		for _, version := range []string{"spitz-store-v1", "spitz-store-v2"} {
			old := []byte(version + "\ndisk\n")
			if err := os.WriteFile(marker, old, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, kind := range []StoreKind{StoreDisk, StoreMemory} {
				_, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways, Store: kind}))
				if !errors.Is(err, ErrStoreVersion) || errors.Is(err, cas.ErrCorrupt) {
					t.Fatalf("open of a %s disk store as %v: err = %v, want ErrStoreVersion", version, kind, err)
				}
				if !strings.Contains(err.Error(), "holds a "+version) || !strings.Contains(err.Error(), "reads spitz-store-v3") {
					t.Fatalf("error does not name both versions: %v", err)
				}
			}
			if got, _ := os.ReadFile(marker); string(got) != string(old) {
				t.Fatalf("the refused open rewrote the marker to %q", got)
			}
		}
	})
	t.Run("memory store checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
		if err != nil {
			t.Fatal(err)
		}
		commitN(t, m.Engine(), 0, 3)
		if err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		snaps, err := filepath.Glob(filepath.Join(dir, ckptDirName, "*.snap"))
		if err != nil || len(snaps) != 1 {
			t.Fatalf("checkpoints: %v %v", snaps, err)
		}
		raw, err := os.ReadFile(snaps[0])
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(raw), "SPITZSNAP3") {
			t.Fatalf("a new checkpoint starts %q", raw[:10])
		}
		for _, magic := range []string{"SPITZSNAP1", "SPITZSNAP2"} {
			if err := os.WriteFile(snaps[0], append([]byte(magic), raw[10:]...), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
			if !errors.Is(err, ledger.ErrSnapshotVersion) || errors.Is(err, cas.ErrCorrupt) || !strings.Contains(err.Error(), magic) {
				t.Fatalf("open over a %s checkpoint: err = %v, want ErrSnapshotVersion", magic, err)
			}
		}
	})
}

func TestDiskRefusesMemoryStoreDirectory(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, m.Engine(), 0, 3)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, diskOpts(Options{Sync: wal.SyncAlways})); err == nil {
		t.Fatal("disk open of a memory-store directory succeeded; want refusal")
	}
}

func TestDiskCorruptHeaderChainDetected(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, diskOpts(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, m.Engine(), 0, 5)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	flipBlockHeaderByte(t, filepath.Join(dir, nodesDirName))

	m2, err := Open(dir, diskOpts(Options{Sync: wal.SyncAlways}))
	if err == nil {
		m2.Close()
		t.Fatal("open served a bit-flipped header chain; want verification failure")
	}
}

// flipBlockHeaderByte parses the node-store segment files (format in
// FORMAT.md: 8-byte magic, then records of len u32 BE | domain u8 |
// digest [32] | crc u32 BE | payload) and flips one payload byte of the
// last DomainBlock record — the ledger head header the reopen chain walk
// starts from.
func flipBlockHeaderByte(t *testing.T, nodesDir string) {
	t.Helper()
	ents, err := os.ReadDir(nodesDir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".spz" {
			segs = append(segs, filepath.Join(nodesDir, e.Name()))
		}
	}
	sort.Strings(segs)
	for i := len(segs) - 1; i >= 0; i-- {
		data, err := os.ReadFile(segs[i])
		if err != nil {
			t.Fatal(err)
		}
		lastOff := -1
		pos := 8 // past magic
		for pos+41 <= len(data) {
			n := int(binary.BigEndian.Uint32(data[pos:]))
			if pos+41+n > len(data) {
				break // sealed-segment index footer
			}
			if data[pos+4] == hashutil.DomainBlock {
				lastOff = pos + 41 // first payload byte
			}
			pos += 41 + n
		}
		if lastOff >= 0 {
			data[lastOff] ^= 0x01
			if err := os.WriteFile(segs[i], data, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("no DomainBlock record found in any segment")
}

func TestDiskTinyCacheServesFullKeyspace(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, diskOpts(Options{Sync: wal.SyncAlways, NodeCacheMB: 64}))
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 2048)
	for i := 0; i < 200; i++ {
		if _, err := m.Engine().Apply("load", []core.Put{
			{Table: "t", Column: "c", PK: []byte(fmt.Sprintf("key-%04d", i)), Value: val},
		}); err != nil {
			t.Fatal(err)
		}
	}
	digest := m.Engine().Digest()
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with the minimum cache budget: every proof path faults in
	// from the segment files and still verifies.
	m2, err := Open(dir, diskOpts(Options{Sync: wal.SyncAlways, NodeCacheMB: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for i := 0; i < 200; i++ {
		res, err := m2.Engine().GetVerified("t", "c", []byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || !res.Found {
			t.Fatalf("key-%04d: found=%v err=%v", i, res.Found, err)
		}
		if res.Digest != digest {
			t.Fatalf("key-%04d proved against %+v, want %+v", i, res.Digest, digest)
		}
	}
	cs := m2.NodeStore().CacheStats()
	if cs.Misses == 0 {
		t.Fatalf("expected cache misses under a 1MB budget, stats %+v", cs)
	}
}
