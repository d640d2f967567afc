package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func collect(t *testing.T, l *Log) map[uint64]string {
	t.Helper()
	out := make(map[uint64]string)
	if err := l.Replay(func(seq uint64, payload []byte) error {
		out[seq] = string(payload)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		seq, err := l.Append([]byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
	for i := 0; i < 10; i++ {
		if got[uint64(i+1)] != fmt.Sprintf("record-%d", i) {
			t.Fatalf("record %d = %q", i+1, got[uint64(i+1)])
		}
	}
	// The sequence continues where it left off.
	if seq, err := l2.Append([]byte("after")); err != nil || seq != 11 {
		t.Fatalf("continued append: seq=%d err=%v, want 11", seq, err)
	}
}

func TestEmptyRecordSurvives(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(nil); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2); len(got) != 1 {
		t.Fatalf("replayed %d records, want 1", len(got))
	}
}

func TestTornTailTruncated(t *testing.T) {
	for name, mangle := range map[string]func([]byte) []byte{
		// Half a frame header.
		"short-header": func(b []byte) []byte { return append(b, 0x03, 0x00) },
		// A full header promising more payload than exists.
		"short-payload": func(b []byte) []byte {
			var hdr [frameHeader]byte
			binary.LittleEndian.PutUint32(hdr[:4], 100)
			binary.LittleEndian.PutUint32(hdr[4:], frameCRC(100, nil))
			return append(append(b, hdr[:]...), []byte("only-part")...)
		},
		// A complete frame whose payload byte was flipped.
		"bad-crc": func(b []byte) []byte {
			var hdr [frameHeader]byte
			p := []byte("torn-record")
			binary.LittleEndian.PutUint32(hdr[:4], uint32(len(p)))
			binary.LittleEndian.PutUint32(hdr[4:], frameCRC(uint32(len(p)), p))
			p[0] ^= 0xff
			return append(append(b, hdr[:]...), p...)
		},
		// A zeroed preallocated region must not parse as records.
		"zero-fill": func(b []byte) []byte { return append(b, make([]byte, 64)...) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Policy: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("good-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()

			seg := filepath.Join(dir, fmt.Sprintf(segmentNameFormat, 1))
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}

			l2, err := Open(dir, Options{Policy: SyncAlways})
			if err != nil {
				t.Fatalf("open after torn tail: %v", err)
			}
			defer l2.Close()
			got := collect(t, l2)
			if len(got) != 3 {
				t.Fatalf("replayed %d records, want the 3 intact ones", len(got))
			}
			// New appends land cleanly after the truncation point.
			if seq, err := l2.Append([]byte("fresh")); err != nil || seq != 4 {
				t.Fatalf("append after truncate: seq=%d err=%v", seq, err)
			}
			l2.Sync()
			l3, err := Open(dir, Options{Policy: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			defer l3.Close()
			if got := collect(t, l3); got[4] != "fresh" || len(got) != 4 {
				t.Fatalf("after re-append: %v", got)
			}
		})
	}
}

func TestCorruptionInEarlierSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncAlways, SegmentSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-with-some-bulk-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation to produce >=2 segments, got %d", len(segs))
	}
	data, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(segs[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Policy: SyncAlways, SegmentSize: 32}); err == nil {
		t.Fatal("open succeeded over mid-log corruption")
	}
}

func TestSegmentRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncAlways, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("payload-%02d-padding-padding", i))); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}

	// Prune everything below record 15: every surviving record must still
	// replay, and at least one old segment must be gone.
	if err := l.PruneTo(15); err != nil {
		t.Fatal(err)
	}
	after, _ := listSegments(dir)
	if len(after) >= len(segs) {
		t.Fatalf("prune removed nothing (%d -> %d segments)", len(segs), len(after))
	}
	l.Close()

	l2, err := Open(dir, Options{Policy: SyncAlways, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	for seq := uint64(15); seq <= 20; seq++ {
		want := fmt.Sprintf("payload-%02d-padding-padding", seq-1)
		if got[seq] != want {
			t.Fatalf("record %d = %q, want %q", seq, got[seq], want)
		}
	}
	if _, ok := got[20]; !ok {
		t.Fatal("lost the newest record")
	}
}

func TestPruneNeverRemovesActiveSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		l.Append([]byte("x"))
	}
	if err := l.PruneTo(100); err != nil {
		t.Fatal(err)
	}
	if segs, _ := listSegments(dir); len(segs) != 1 {
		t.Fatalf("active segment pruned: %d segments left", len(segs))
	}
}

func TestConcurrentGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2); len(got) != writers*per {
		t.Fatalf("recovered %d records, want %d", len(got), writers*per)
	}
}

// TestPipelinedAppendsShareOneFsync: the commit pipeline appends records
// while an earlier wait is still pending. The first wait to run syncs
// everything appended so far in one fsync, says how many records that was,
// and the waits it covered return without another one — whatever order
// they are called in.
func TestPipelinedAppendsShareOneFsync(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var waits []func() error
	for i := 0; i < 3; i++ {
		_, wait, err := l.AppendAsync([]byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, wait)
	}
	fsyncs, recs := mWalFsyncs.Value(), mWalFsyncRecs.Snapshot()
	for _, i := range []int{1, 2, 0} {
		if err := waits[i](); err != nil {
			t.Fatal(err)
		}
	}
	if got := mWalFsyncs.Value() - fsyncs; got != 1 {
		t.Fatalf("%d fsyncs for three records appended before the first wait, want 1", got)
	}
	after := mWalFsyncRecs.Snapshot()
	if n, sum := after.Count-recs.Count, after.Sum-recs.Sum; n != 1 || sum != 3 {
		t.Fatalf("spitz_wal_fsync_records observed %d fsyncs covering %d records, want 1 covering 3", n, sum)
	}
	if info := l.Info(); info.SyncedSeq != 3 {
		t.Fatalf("synced seq = %d, want 3", info.SyncedSeq)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Policy: p, Interval: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				if _, err := l.Append([]byte("r")); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if got := collect(t, l2); len(got) != 50 {
				t.Fatalf("recovered %d records, want 50", len(got))
			}
		})
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

func TestDoubleCloseIsSafe(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		t.Run(p.String(), func(t *testing.T) {
			l, err := Open(t.TempDir(), Options{Policy: p})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append([]byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			// Must return ErrClosed, not panic (SyncInterval used to close
			// its stop channel twice).
			if err := l.Close(); err != ErrClosed {
				t.Fatalf("second close: %v, want ErrClosed", err)
			}
		})
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{
		"always": SyncAlways, "interval": SyncInterval, "never": SyncNever,
	} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted bogus")
	}
}
