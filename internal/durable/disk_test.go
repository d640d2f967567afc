package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"spitz/internal/cas"
	"spitz/internal/core"
	"spitz/internal/hashutil"
	"spitz/internal/wal"
)

func TestDiskStoreRoundTripReopen(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, m.Engine(), 0, 10)
	digest := m.Engine().Digest()
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
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
	m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, m.Engine(), 0, 10)
	digest := m.Engine().Digest()
	// Crash: no Checkpoint, no Close. Nothing reached the node store —
	// recovery must come entirely from the WAL.

	m2, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
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
	m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
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

	m2, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
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
	m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
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
	m2, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
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
			m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
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

			m2, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
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
			opts := noAutoCkpt(Options{Sync: wal.SyncAlways, NodeCacheMB: 1})
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

// TestDiskStoreMarkerIsAuthoritative: every new data directory is the
// node store, whatever the deprecated Store option says — marked, with
// no checkpoints/ tree — and the marker, not the option, decides how it
// reopens.
func TestDiskStoreMarkerIsAuthoritative(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
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
	if got, err := os.ReadFile(filepath.Join(dir, storeMarkerName)); err != nil || string(got) != storeMarkerBody {
		t.Fatalf("a new data directory is marked %q, %v", got, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoints")); !os.IsNotExist(err) {
		t.Fatalf("a new data directory holds checkpoints/ (stat err %v)", err)
	}

	m2, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways, Store: StoreDisk}))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.Engine().Digest(); got != digest {
		t.Fatalf("digest = %+v, want %+v", got, digest)
	}
}

// TestOldFormatsRefusedByName: data this build does not read is refused
// with a format-version error that names what it found — not opened to a
// different digest or to an empty database, and not reported as
// corruption — and the refusal leaves the directory as it was. A node
// store with the v1 or v2 marker holds leaves that hash to other digests;
// a memory-store directory (a MANIFEST, checkpoints/ or a non-empty wal/
// without a marker) holds its state in a snapshot this build no longer
// checkpoints to or recovers from.
func TestOldFormatsRefusedByName(t *testing.T) {
	t.Run("disk store", func(t *testing.T) {
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
		marker := filepath.Join(dir, storeMarkerName)
		for _, version := range []string{"spitz-store-v1", "spitz-store-v2"} {
			if err := os.WriteFile(marker, []byte(version+"\ndisk\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirContents(t, dir)
			_, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
			if !errors.Is(err, ErrStoreVersion) || errors.Is(err, cas.ErrCorrupt) {
				t.Fatalf("open of a %s disk store: err = %v, want ErrStoreVersion", version, err)
			}
			if !strings.Contains(err.Error(), "holds a "+version) || !strings.Contains(err.Error(), "reads spitz-store-v3") {
				t.Fatalf("error does not name both versions: %v", err)
			}
			if !maps.Equal(dirContents(t, dir), before) {
				t.Fatalf("the refused open of a %s disk store changed the directory", version)
			}
		}
	})
	t.Run("memory store", func(t *testing.T) {
		for _, row := range []struct {
			name                string
			manifest, ckpt, wal bool
		}{
			{"checkpoint and wal", true, true, true},
			{"wal only", false, false, true},
			{"checkpoints only", false, true, false},
			{"manifest only", true, false, false},
		} {
			t.Run(row.name, func(t *testing.T) {
				dir := t.TempDir()
				writeMemoryStoreLayout(t, dir, row.manifest, row.ckpt, row.wal)
				before := dirContents(t, dir)
				m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
				if err == nil {
					m.Close()
					t.Fatalf("a memory-store directory opened at height %d; want a refusal", m.Engine().Ledger().Height())
				}
				if !errors.Is(err, ErrStoreVersion) || errors.Is(err, cas.ErrCorrupt) ||
					!strings.Contains(err.Error(), "memory-store database") || !strings.Contains(err.Error(), "no longer opens") {
					t.Fatalf("err = %v, want ErrStoreVersion naming a memory-store database", err)
				}
				if !maps.Equal(dirContents(t, dir), before) {
					t.Fatal("the refused open changed the directory")
				}
			})
		}
	})
}

// writeMemoryStoreLayout lays out what a build with the memory store left
// in a data directory after three blocks: a MANIFEST naming a snapshot
// checkpoint, the checkpoint under checkpoints/, and the WAL.
func writeMemoryStoreLayout(t *testing.T, dir string, manifest, ckpt, walRecs bool) {
	t.Helper()
	src := core.New(core.Options{})
	sink := &captureSink{}
	src.SetCommitSink(sink)
	commitN(t, src, 0, 3)
	const snap = "ckpt-0000000000000003.snap"
	if manifest {
		body := "spitz-manifest-v1\ncheckpoint " + snap + "\nheight 3\n"
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if ckpt {
		var buf bytes.Buffer
		if err := src.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, "checkpoints"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "checkpoints", snap), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if walRecs {
		log, err := wal.Open(filepath.Join(dir, walDirName), wal.Options{Policy: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range sink.seen {
			if _, err := log.Append(EncodeRecord(rec)); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// dirContents maps every path under dir to its bytes (directories to "/").
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			out[path] = "/"
			return nil
		}
		data, err := os.ReadFile(path)
		out[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDiskCorruptHeaderChainDetected(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
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

	m2, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
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
	m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways, NodeCacheMB: 64}))
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
	m2, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways, NodeCacheMB: 1}))
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

// TestVLogDamage: a crash mid-append can tear only the VLOG's final
// frame, so only the final frame is truncated. Damage before it — a
// flipped byte in the first of two frames, or a frame whose CRC holds but
// whose entry count no frame could carry — fails the open and leaves the
// file as it was, instead of silently dropping demoted versions.
func TestVLogDamage(t *testing.T) {
	build := func(t *testing.T) (vlogPath string, data []byte, frame1End int) {
		t.Helper()
		dir := t.TempDir()
		m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
		if err != nil {
			t.Fatal(err)
		}
		// Two checkpoints with demotions: gen0-1 in frame 1, gen2-4 in frame 2.
		for gen := 0; gen < 6; gen++ {
			if _, err := m.Engine().Apply("upd", []core.Put{
				{Table: "t", Column: "c", PK: []byte("k"), Value: []byte(fmt.Sprintf("gen%d", gen))},
			}); err != nil {
				t.Fatal(err)
			}
			if gen == 2 || gen == 5 {
				if err := m.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		vlogPath = filepath.Join(dir, vlogName)
		if data, err = os.ReadFile(vlogPath); err != nil {
			t.Fatal(err)
		}
		frame1End = 8 + int(binary.LittleEndian.Uint32(data))
		if frame1End >= len(data) {
			t.Fatalf("VLOG holds one frame of %d bytes; want two", len(data))
		}
		return vlogPath, data, frame1End
	}
	refused := func(t *testing.T, vlogPath string, damaged []byte) {
		t.Helper()
		if err := os.WriteFile(vlogPath, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := Open(filepath.Dir(vlogPath), noAutoCkpt(Options{Sync: wal.SyncAlways}))
		if err == nil {
			hist, _ := m.Engine().History("t", "c", []byte("k"))
			m.Close()
			t.Fatalf("a damaged VLOG opened with %d versions of k; want an error", len(hist))
		}
		if got, _ := os.ReadFile(vlogPath); !bytes.Equal(got, damaged) {
			t.Fatalf("the refused open rewrote the VLOG (%d bytes, was %d)", len(got), len(damaged))
		}
	}

	t.Run("flip in frame 1 of 2", func(t *testing.T) {
		vlogPath, data, frame1End := build(t)
		data[frame1End-1] ^= 0x01
		refused(t, vlogPath, data)
	})
	t.Run("entry count no frame holds", func(t *testing.T) {
		vlogPath, data, _ := build(t)
		payload := binary.AppendUvarint(nil, 1<<50)
		frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, vlogCRCTable))
		refused(t, vlogPath, append(data, append(frame, payload...)...))
	})
	t.Run("torn final frame", func(t *testing.T) {
		vlogPath, data, frame1End := build(t)
		if err := os.WriteFile(vlogPath, data[:len(data)-3], 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := Open(filepath.Dir(vlogPath), noAutoCkpt(Options{Sync: wal.SyncAlways}))
		if err != nil {
			t.Fatalf("open over a torn final VLOG frame: %v", err)
		}
		m.Close()
		if got, _ := os.ReadFile(vlogPath); !bytes.Equal(got, data[:frame1End]) {
			t.Fatalf("torn VLOG is %d bytes after open, want frame 1's %d", len(got), frame1End)
		}
	})
}

// TestManifestFieldsMustParse: a MANIFEST field that is missing or does
// not parse fails the open instead of reading as zero — a height of 0
// would reopen an empty ledger, a maxtxn of 0 would reuse transaction IDs.
func TestManifestFieldsMustParse(t *testing.T) {
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
	path := filepath.Join(dir, manifestName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct{ key, line string }{
		{"height", "height x"},
		{"height", "height -1"},
		{"maxtxn", "maxtxn x"},
		{"maxtxn", ""},
		{"head", "head x"},
		{"height", "height"},
	} {
		var lines []string
		for _, line := range strings.Split(strings.TrimSpace(string(good)), "\n") {
			if strings.HasPrefix(line, row.key+" ") {
				line = row.line
			}
			if line != "" {
				lines = append(lines, line)
			}
		}
		body := strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways})); err == nil {
			m.Close()
			t.Fatalf("opened over a manifest reading %q", body)
		}
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	checkN(t, m2.Engine(), 3)
}
