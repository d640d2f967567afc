package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"spitz/internal/cellstore"
	"spitz/internal/core"
	"spitz/internal/txn"
	"spitz/internal/wal"
)

// noAutoCkpt disables background checkpointing so tests control exactly
// when checkpoints happen.
func noAutoCkpt(o Options) Options {
	o.CheckpointInterval = -1
	return o
}

func commitN(t *testing.T, eng *core.Engine, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		_, err := eng.Apply(fmt.Sprintf("stmt-%d", i), []core.Put{
			{Table: "t", Column: "c", PK: []byte(fmt.Sprintf("k%03d", i)), Value: []byte(fmt.Sprintf("v%d", i))},
			{Table: "t", Column: "d", PK: []byte("shared"), Value: []byte(fmt.Sprintf("d%d", i))},
		})
		if err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
}

func checkN(t *testing.T, eng *core.Engine, n int) {
	t.Helper()
	if h := eng.Ledger().Height(); h != uint64(n) {
		t.Fatalf("height = %d, want %d", h, n)
	}
	for i := 0; i < n; i++ {
		v, err := eng.Get("t", "c", []byte(fmt.Sprintf("k%03d", i)))
		if err != nil {
			t.Fatalf("get k%03d: %v", i, err)
		}
		if string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%03d = %q", i, v)
		}
	}
	if n > 0 {
		v, err := eng.Get("t", "d", []byte("shared"))
		if err != nil || string(v) != fmt.Sprintf("d%d", n-1) {
			t.Fatalf("shared cell = %q, %v (want d%d)", v, err, n-1)
		}
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	rec := core.CommitRecord{Height: 7, Version: 44}
	rec.BlockHash[0], rec.BlockHash[31] = 0xab, 0xcd
	for tn := 0; tn < 2; tn++ {
		tx := core.TxnCommit{ID: uint64(3 + tn), Version: uint64(42 + tn),
			Statement: fmt.Sprintf("INSERT INTO t%d", tn)}
		for i := 0; i < 3; i++ {
			tx.Cells = append(tx.Cells, cellstore.Cell{
				Table: "t", Column: fmt.Sprintf("col%d", i), PK: []byte{byte(i)},
				Version: tx.Version, Value: []byte(fmt.Sprintf("val%d", i)), Tombstone: i == 2,
			})
		}
		rec.Txns = append(rec.Txns, tx)
	}
	got, err := DecodeRecord(EncodeRecord(rec))
	if err != nil {
		t.Fatal(err)
	}
	if got.Height != rec.Height || got.Version != rec.Version ||
		got.BlockHash != rec.BlockHash || len(got.Txns) != 2 {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, rec)
	}
	for tn, tx := range got.Txns {
		want := rec.Txns[tn]
		if tx.ID != want.ID || tx.Version != want.Version || tx.Statement != want.Statement ||
			len(tx.Cells) != len(want.Cells) {
			t.Fatalf("txn %d mismatch: %+v vs %+v", tn, tx, want)
		}
		for i, c := range tx.Cells {
			wc := want.Cells[i]
			if c.Table != wc.Table || c.Column != wc.Column || !bytes.Equal(c.PK, wc.PK) ||
				!bytes.Equal(c.Value, wc.Value) || c.Tombstone != wc.Tombstone || c.Version != wc.Version {
				t.Fatalf("txn %d cell %d mismatch: %+v vs %+v", tn, i, c, wc)
			}
		}
	}
	if _, err := DecodeRecord(EncodeRecord(rec)[:10]); err == nil {
		t.Fatal("truncated record decoded")
	}
}

// encodeRecordV1 reproduces the legacy single-transaction record layout
// (see FORMAT.md) so the tests can exercise the v1 decode path with
// bytes identical to what pre-group-commit builds wrote.
func encodeRecordV1(rec core.CommitRecord) []byte {
	tx := rec.Txns[0]
	var buf []byte
	buf = binary.AppendUvarint(buf, rec.Height)
	buf = binary.AppendUvarint(buf, tx.ID)
	buf = binary.AppendUvarint(buf, tx.Version)
	buf = binary.AppendUvarint(buf, uint64(len(tx.Statement)))
	buf = append(buf, tx.Statement...)
	buf = append(buf, rec.BlockHash[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(tx.Cells)))
	for i := range tx.Cells {
		c := &tx.Cells[i]
		for _, field := range [][]byte{[]byte(c.Table), []byte(c.Column), c.PK, c.Value} {
			buf = binary.AppendUvarint(buf, uint64(len(field)))
			buf = append(buf, field...)
		}
		var flags byte
		if c.Tombstone {
			flags |= 1
		}
		buf = append(buf, flags)
	}
	return buf
}

func TestRecordCodecDecodesLegacyV1(t *testing.T) {
	rec := core.CommitRecord{Height: 9, Version: 21, Txns: []core.TxnCommit{{
		ID: 4, Version: 21, Statement: "UPDATE t",
		Cells: []cellstore.Cell{
			{Table: "t", Column: "c", PK: []byte("pk"), Version: 21, Value: []byte("v")},
			{Table: "t", Column: "d", PK: []byte("pk"), Version: 21, Tombstone: true},
		},
	}}}
	rec.BlockHash[5] = 0x77
	got, err := DecodeRecord(encodeRecordV1(rec))
	if err != nil {
		t.Fatalf("v1 decode: %v", err)
	}
	if got.Height != rec.Height || got.Version != rec.Version || got.BlockHash != rec.BlockHash ||
		len(got.Txns) != 1 {
		t.Fatalf("v1 round trip mismatch: %+v", got)
	}
	tx, want := got.Txns[0], rec.Txns[0]
	if tx.ID != want.ID || tx.Version != want.Version || tx.Statement != want.Statement ||
		len(tx.Cells) != 2 || !bytes.Equal(tx.Cells[0].Value, []byte("v")) ||
		!tx.Cells[1].Tombstone || tx.Cells[0].Version != 21 {
		t.Fatalf("v1 txn mismatch: %+v vs %+v", tx, want)
	}
}

func TestRecoveryWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, m.Engine(), 0, 10)
	digest := m.Engine().Digest()
	// Crash: the handle is dropped without Close; SyncAlways means every
	// commit already hit the disk.

	m2, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer m2.Close()
	if got := m2.Engine().Digest(); got != digest {
		t.Fatalf("digest after recovery = %+v, want %+v", got, digest)
	}
	checkN(t, m2.Engine(), 10)

	// The recovered engine keeps committing where the old one stopped.
	commitN(t, m2.Engine(), 10, 12)
	checkN(t, m2.Engine(), 12)
}

func TestRecoveryWithCheckpointAndTail(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, m.Engine(), 0, 6)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if h := m.CheckpointHeight(); h != 6 {
		t.Fatalf("checkpoint height = %d, want 6", h)
	}
	commitN(t, m.Engine(), 6, 10) // WAL tail beyond the checkpoint
	digest := m.Engine().Digest()
	// Crash without Close.

	m2, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer m2.Close()
	if got := m2.Engine().Digest(); got != digest {
		t.Fatalf("digest after recovery = %+v, want %+v", got, digest)
	}
	checkN(t, m2.Engine(), 10)
	if h := m2.CheckpointHeight(); h != 6 {
		t.Fatalf("recovered checkpoint height = %d, want 6", h)
	}
}

func TestCheckpointPrunesWAL(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so every few commits rotate.
	m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways, SegmentSize: 256}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	commitN(t, m.Engine(), 0, 30)
	before := countWALSegments(t, dir)
	if before < 3 {
		t.Fatalf("expected several WAL segments before checkpoint, got %d", before)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := countWALSegments(t, dir)
	if after >= before {
		t.Fatalf("checkpoint pruned nothing: %d -> %d segments", before, after)
	}
	// And the pruned log still recovers the full database.
	digest := m.Engine().Digest()
	m2, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways, SegmentSize: 256}))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.Engine().Digest(); got != digest {
		t.Fatalf("digest after prune+recovery = %+v, want %+v", got, digest)
	}
	checkN(t, m2.Engine(), 30)
}

// TestCheckpointReplacesPredecessor: a checkpoint is one root pointer,
// not a file per checkpoint — the MANIFEST names the newest head and
// nothing of its predecessor (no temp file, no checkpoints/ tree) is
// left beside it.
func TestCheckpointReplacesPredecessor(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	commitN(t, m.Engine(), 0, 3)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitN(t, m.Engine(), 3, 6)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	head, err := m.Engine().Ledger().Header(5)
	if err != nil {
		t.Fatal(err)
	}
	if man.height != 6 || man.head != head.Hash() {
		t.Fatalf("manifest names height %d head %s, want 6 %s", man.height, man.head.Short(), head.Hash().Short())
	}
	for _, stray := range []string{manifestName + ".tmp", "checkpoints"} {
		if _, err := os.Stat(filepath.Join(dir, stray)); !os.IsNotExist(err) {
			t.Fatalf("%s beside the manifest (stat err %v)", stray, err)
		}
	}
}

func TestTornFinalRecordLosesOnlyLastBlock(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, m.Engine(), 0, 8)
	// Crash mid-append: chop bytes off the final WAL frame.
	seg := lastWALSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatalf("recovery over torn tail: %v", err)
	}
	defer m2.Close()
	checkN(t, m2.Engine(), 7) // block 8 was torn; 7 survive
	// And the database accepts new commits after the truncation.
	commitN(t, m2.Engine(), 7, 9)
	checkN(t, m2.Engine(), 9)
}

func TestTamperedRecordRejectedByHashCheck(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, m.Engine(), 0, 3)

	// Rewrite the last frame with a modified cell value and a *correct*
	// CRC: the frame checksum passes, so only the verified replay (block
	// hash comparison) can catch it.
	seg := lastWALSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	frames := splitFrames(t, data)
	last := frames[len(frames)-1]
	rec, err := DecodeRecord(last)
	if err != nil {
		t.Fatal(err)
	}
	rec.Txns[0].Cells[0].Value = []byte("tampered")
	forged := EncodeRecord(rec)
	var out []byte
	for _, f := range frames[:len(frames)-1] {
		out = appendFrame(out, f)
	}
	out = appendFrame(out, forged)
	if err := os.WriteFile(seg, out, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways})); err == nil {
		t.Fatal("recovery accepted a tampered WAL record")
	} else if !bytes.Contains([]byte(err.Error()), []byte("hash")) {
		t.Fatalf("unexpected rejection reason: %v", err)
	}
}

func TestTransactionalCommitsAreLogged(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways, Mode: txn.ModeOCC}))
	if err != nil {
		t.Fatal(err)
	}
	tx := m.Engine().Begin()
	if err := tx.Put("t", "c", []byte("txk"), []byte("txv")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	digest := m.Engine().Digest()

	m2, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways, Mode: txn.ModeOCC}))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.Engine().Digest(); got != digest {
		t.Fatalf("digest after txn recovery = %+v, want %+v", got, digest)
	}
	v, err := m2.Engine().Get("t", "c", []byte("txk"))
	if err != nil || string(v) != "txv" {
		t.Fatalf("txn write lost: %q, %v", v, err)
	}
}

func TestBackgroundCheckpointByBlockCount(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{Sync: wal.SyncAlways, CheckpointEveryBlocks: 5, CheckpointInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	commitN(t, m.Engine(), 0, 12)
	deadline := time.Now().Add(5 * time.Second)
	for m.CheckpointHeight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no background checkpoint after 12 commits with CheckpointEveryBlocks=5")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTxnIDsNeverReusedAfterRecovery: recovery from a checkpoint alone
// (empty WAL tail) must still resume transaction IDs above everything in
// the restored ledger — duplicate IDs would corrupt the audit history.
func TestTxnIDsNeverReusedAfterRecovery(t *testing.T) {
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

	m2, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	commitN(t, m2.Engine(), 3, 5)
	seen := make(map[uint64]bool)
	l := m2.Engine().Ledger()
	for h := uint64(0); h < l.Height(); h++ {
		body, err := l.Body(h)
		if err != nil {
			t.Fatal(err)
		}
		for _, txnSum := range body {
			if seen[txnSum.ID] {
				t.Fatalf("txn id %d reused (block %d)", txnSum.ID, h)
			}
			seen[txnSum.ID] = true
		}
	}
}

func TestHistorySurvivesRecovery(t *testing.T) {
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

func TestManifestSurvivesCrashDuringRewrite(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, m.Engine(), 0, 3)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	digest := m.Engine().Digest()
	// Simulate a crash between writing MANIFEST.tmp and the rename: a
	// stray tmp file must not confuse recovery.
	if err := os.WriteFile(filepath.Join(dir, manifestName+".tmp"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.Engine().Digest(); got != digest {
		t.Fatalf("digest = %+v, want %+v", got, digest)
	}
}

func TestVerifiedReadsAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	commitN(t, m.Engine(), 0, 5)
	old := m.Engine().Digest()

	m2, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	res, err := m2.Engine().GetVerified("t", "c", []byte("k002"))
	if err != nil || !res.Found {
		t.Fatalf("verified read after recovery: found=%v err=%v", res.Found, err)
	}
	if res.Digest != old {
		t.Fatalf("verified read digest %+v, want pre-crash %+v", res.Digest, old)
	}
	// A consistency proof from the pre-crash digest must still verify —
	// recovery preserved, not rewrote, history.
	commitN(t, m2.Engine(), 5, 7)
	if _, err := m2.Engine().ConsistencyProof(old.Height, m2.Engine().Digest().Height); err != nil {
		t.Fatalf("consistency proof across recovery: %v", err)
	}
}

// --- helpers -------------------------------------------------------------

func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, walDirName))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".wal" {
			out = append(out, filepath.Join(dir, walDirName, e.Name()))
		}
	}
	sort.Strings(out)
	return out
}

func countWALSegments(t *testing.T, dir string) int { return len(walFiles(t, dir)) }

func lastWALSegment(t *testing.T, dir string) string {
	files := walFiles(t, dir)
	if len(files) == 0 {
		t.Fatal("no WAL segments")
	}
	return files[len(files)-1]
}

// splitFrames parses a segment file into record payloads.
func splitFrames(t *testing.T, data []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(data) > 0 {
		if len(data) < 8 {
			t.Fatal("trailing partial frame")
		}
		n := binary.LittleEndian.Uint32(data[:4])
		out = append(out, data[8:8+n])
		data = data[8+n:]
	}
	return out
}

func appendFrame(buf, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	c := crc32.Update(0, crc32.MakeTable(crc32.Castagnoli), hdr[:4])
	c = crc32.Update(c, crc32.MakeTable(crc32.Castagnoli), payload)
	binary.LittleEndian.PutUint32(hdr[4:], c)
	return append(append(buf, hdr[:]...), payload...)
}

// captureSink records CommitRecords handed to it (for building legacy
// WAL contents from real commits).
type captureSink struct{ seen []core.CommitRecord }

func (s *captureSink) Append(rec core.CommitRecord) (func() error, error) {
	s.seen = append(s.seen, rec)
	return func() error { return nil }, nil
}

// TestMultiTxnBlockRecovery: a block carrying several transactions (group
// commit) must replay from the WAL to the identical digest after an
// unclean stop.
func TestMultiTxnBlockRecovery(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	as, ok := m.Engine().TxnStore().(txn.AsyncStore)
	if !ok {
		t.Fatal("engine store is not async")
	}
	// Enqueue several commits before any leader runs: they all land in
	// one ledger block and one WAL record.
	const n = 4
	waits := make([]func() error, n)
	for i := 0; i < n; i++ {
		key := cellstore.CellPrefix("t", "c", []byte(fmt.Sprintf("k%d", i)))
		_, wait, err := as.ApplyBatchAsync([]txn.Write{{Key: key, Value: []byte(fmt.Sprintf("v%d", i))}})
		if err != nil {
			t.Fatal(err)
		}
		waits[i] = wait
	}
	for _, wait := range waits {
		if err := wait(); err != nil {
			t.Fatal(err)
		}
	}
	if h := m.Engine().Ledger().Height(); h != 1 {
		t.Fatalf("height = %d, want 1 multi-txn block", h)
	}
	digest := m.Engine().Digest()
	// Crash without Close; SyncAlways already made the record durable.

	m2, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer m2.Close()
	if got := m2.Engine().Digest(); got != digest {
		t.Fatalf("digest after multi-txn recovery = %+v, want %+v", got, digest)
	}
	body, err := m2.Engine().Ledger().Body(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != n {
		t.Fatalf("recovered block carries %d txn summaries, want %d", len(body), n)
	}
	for i := 0; i < n; i++ {
		v, err := m2.Engine().Get("t", "c", []byte(fmt.Sprintf("k%d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d = %q, %v", i, v, err)
		}
	}
	// New transaction IDs continue above the recovered block's.
	if _, err := m2.Engine().Apply("after", []core.Put{{Table: "t", Column: "c", PK: []byte("kx"), Value: []byte("vx")}}); err != nil {
		t.Fatal(err)
	}
	last, err := m2.Engine().Ledger().Body(1)
	if err != nil {
		t.Fatal(err)
	}
	if last[0].ID < uint64(n) {
		t.Fatalf("txn id %d reused after multi-txn recovery", last[0].ID)
	}
}

// TestLegacyV1WALReplays: a WAL written by the pre-group-commit format
// (one transaction per record, no format tag) must still recover, and
// new commits appended to the same log afterwards (in the v2 format)
// must coexist with it.
func TestLegacyV1WALReplays(t *testing.T) {
	// Build reference commits on a plain engine, capturing the records.
	src := core.New(core.Options{})
	sink := &captureSink{}
	src.SetCommitSink(sink)
	commitN(t, src, 0, 5)
	digest := src.Digest()

	// Write them as v1 frames into a fresh data directory's WAL.
	dir := t.TempDir()
	fresh, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(filepath.Join(dir, walDirName), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sink.seen {
		if len(rec.Txns) != 1 {
			t.Fatalf("serial commit produced %d txns in one block", len(rec.Txns))
		}
		if _, err := log.Append(encodeRecordV1(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatalf("recovery from v1 log: %v", err)
	}
	if got := m.Engine().Digest(); got != digest {
		t.Fatalf("digest from v1 log = %+v, want %+v", got, digest)
	}
	checkN(t, m.Engine(), 5)

	// Append new commits — written in the v2 format — and recover the
	// now mixed-format log.
	commitN(t, m.Engine(), 5, 8)
	digest = m.Engine().Digest()
	// Crash without Close.

	m2, err := Open(dir, noAutoCkpt(Options{Sync: wal.SyncAlways}))
	if err != nil {
		t.Fatalf("recovery from mixed-format log: %v", err)
	}
	defer m2.Close()
	if got := m2.Engine().Digest(); got != digest {
		t.Fatalf("digest from mixed log = %+v, want %+v", got, digest)
	}
	checkN(t, m2.Engine(), 8)
}
