package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"spitz/internal/cas"
	"spitz/internal/cellstore"
	"spitz/internal/hashutil"
	"spitz/internal/proof"
)

func snapshotRoundTrip(t *testing.T, l *Ledger) *Ledger {
	t.Helper()
	var buf bytes.Buffer
	if _, err := l.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	restored, err := LoadSnapshot(cas.NewMemory(), &buf)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	return restored
}

func TestSnapshotRoundTripPreservesState(t *testing.T) {
	l := New(cas.NewMemory())
	commitN(t, l, 4)
	// Overwrite some cells so they have chains.
	if _, err := l.Commit(100, nil, cellsFor(100, 10, "b0")); err != nil {
		t.Fatal(err)
	}
	restored := snapshotRoundTrip(t, l)

	if restored.Digest() != l.Digest() {
		t.Fatalf("digest changed across snapshot: %+v vs %+v", restored.Digest(), l.Digest())
	}
	// Reads work.
	snap, _, ok := restored.Latest()
	if !ok {
		t.Fatal("restored ledger empty")
	}
	c, found, err := snap.GetHead("t", "c", []byte("b0-0003"))
	if err != nil || !found || string(c.Value) != "v100-3" {
		t.Fatalf("restored read = %+v %v %v", c, found, err)
	}
	// History (each head's chain) survives.
	hist, err := restored.History("t", "c", []byte("b0-0003"))
	if err != nil || len(hist) != 2 {
		t.Fatalf("restored history = %d versions, %v", len(hist), err)
	}
	// Proofs still verify against digests clients saved before the
	// snapshot.
	oldDigest := l.Digest()
	_, found, p, err := proveGet(restored, restored.Height()-1, "t", "c", []byte("b0-0003"))
	if err != nil || !found {
		t.Fatal("restored proof failed")
	}
	if err := p.Verify(oldDigest); err != nil {
		t.Fatalf("restored proof vs pre-snapshot digest: %v", err)
	}
}

func TestSnapshotThenContinueCommitting(t *testing.T) {
	l := New(cas.NewMemory())
	commitN(t, l, 2)
	restored := snapshotRoundTrip(t, l)
	old := restored.Digest()
	if _, err := restored.Commit(500, nil, cellsFor(500, 3, "post")); err != nil {
		t.Fatalf("commit after restore: %v", err)
	}
	cons, err := restored.ConsistencyProof(old.Height, restored.Height())
	if err != nil {
		t.Fatal(err)
	}
	if err := cons.Verify(old.Root, restored.Digest().Root); err != nil {
		t.Fatalf("post-restore history not consistent: %v", err)
	}
}

func TestSnapshotEmptyLedger(t *testing.T) {
	l := New(cas.NewMemory())
	restored := snapshotRoundTrip(t, l)
	if restored.Height() != 0 {
		t.Fatal("empty ledger restored with blocks")
	}
	if _, err := restored.Commit(1, nil, cellsFor(1, 2, "x")); err != nil {
		t.Fatalf("commit into restored empty ledger: %v", err)
	}
}

func TestSnapshotRejectsTampering(t *testing.T) {
	l := New(cas.NewMemory())
	commitN(t, l, 3)
	var buf bytes.Buffer
	if _, err := l.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip one byte in a swept range of positions: every corruption must
	// be rejected or, at minimum, produce a ledger whose digest differs
	// (never a silently identical-yet-altered database).
	for _, off := range []int{len(snapshotMagic) + 3, len(raw) / 2, len(raw) - 10} {
		mutated := append([]byte(nil), raw...)
		mutated[off] ^= 0xFF
		restored, err := LoadSnapshot(cas.NewMemory(), bytes.NewReader(mutated))
		if err != nil {
			continue // rejected: good
		}
		if restored.Digest() == l.Digest() {
			// Loaded and digest matches: then the data must match too —
			// verify a proof end to end to be sure.
			_, _, p, perr := proveGet(restored, restored.Height()-1, "t", "c", []byte("b0-0001"))
			if perr != nil {
				continue
			}
			if err := p.Verify(l.Digest()); err != nil {
				t.Fatalf("offset %d: tampered snapshot produced digest-matching but unprovable ledger", off)
			}
		}
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := LoadSnapshot(cas.NewMemory(), bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage accepted as snapshot")
	}
	if _, err := LoadSnapshot(cas.NewMemory(), bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestSnapshotTruncatedStreamDetected(t *testing.T) {
	// Truncate the object stream: the loader must notice the missing
	// bodies rather than build a ledger with dangling references.
	l := New(cas.NewMemory())
	commitN(t, l, 2)
	var buf bytes.Buffer
	if _, err := l.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := LoadSnapshot(cas.NewMemory(), bytes.NewReader(raw[:len(raw)*3/4])); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	l := New(cas.NewMemory())
	commitN(t, l, 3)
	var a, b bytes.Buffer
	if _, err := l.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := l.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshot encoding not deterministic")
	}
}

// TestSnapshotEveryByteFlipIsCaught sweeps the whole stream: a mutated
// snapshot is refused, or — where the byte is not load-bearing for the
// head state — restores to the same digest with every row readable and
// provable. A tree leaf is addressed by its header alone, so its entries
// are only safe because restore checks each leaf's groups against that
// header before storing it: a flipped entry byte must not come back as a
// digest-matching ledger that serves the flipped byte.
func TestSnapshotEveryByteFlipIsCaught(t *testing.T) {
	l := New(cas.NewMemory())
	commitN(t, l, 3)
	var buf bytes.Buffer
	if _, err := l.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	snap, _, _ := l.Latest()
	accepted := 0
	for off := range raw {
		mutated := append([]byte(nil), raw...)
		mutated[off] ^= 0x20
		restored, err := LoadSnapshot(cas.NewMemory(), bytes.NewReader(mutated))
		if err != nil || restored.Digest() != l.Digest() {
			continue // refused, or visibly another ledger
		}
		accepted++
		for b := 0; b < 3; b++ {
			for i := 0; i < 10; i++ {
				pk := []byte(fmt.Sprintf("b%d-%04d", b, i))
				want, _, _ := snap.GetHead("t", "c", pk)
				got, found, p, err := proveGet(restored, restored.Height()-1, "t", "c", pk)
				if err != nil || !found || !bytes.Equal(got.Value, want.Value) {
					t.Fatalf("byte %d flipped: restored ledger has the same digest but row %s reads %q %v %v, want %q",
						off, pk, got.Value, found, err, want.Value)
				}
				if err := p.Verify(l.Digest()); err != nil {
					t.Fatalf("byte %d flipped: row %s no longer proves: %v", off, pk, err)
				}
			}
		}
	}
	t.Logf("%d of %d single-byte mutations restored (to the same digest and rows)", accepted, len(raw))
}

// TestSnapshotOldFormatRefusedByName: a version-1 or version-2 stream holds
// tree leaves that hash differently, a version-3 one cells without links;
// each is refused as an old format, not mistaken for garbage or restored
// to other digests.
func TestSnapshotOldFormatRefusedByName(t *testing.T) {
	l := New(cas.NewMemory())
	commitN(t, l, 2)
	var buf bytes.Buffer
	if _, err := l.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for _, magic := range []string{"SPITZSNAP1", "SPITZSNAP2", "SPITZSNAP3"} {
		old := append([]byte(magic), buf.Bytes()[len(snapshotMagic):]...)
		_, err := LoadSnapshot(cas.NewMemory(), bytes.NewReader(old))
		if !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("%s snapshot: err = %v, want ErrSnapshotVersion", magic, err)
		}
		if !strings.Contains(err.Error(), "stream is "+magic) || !strings.Contains(err.Error(), "reads "+snapshotMagic) {
			t.Fatalf("error does not name both versions: %v", err)
		}
	}
	if _, err := LoadSnapshot(cas.NewMemory(), bytes.NewReader([]byte("SPITZSNAP9 and so on"))); err == nil || errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("unknown magic: err = %v", err)
	}
}

// TestSnapshotForgedVersionRefused: a cell's old versions are found by
// walking its head's chain, never through an index the stream names. A
// chain object edited in the stream no longer hashes to the link before it,
// so the restore fails by name; an object the stream adds beside the chains
// is reachable from no head, so History never returns it.
func TestSnapshotForgedVersionRefused(t *testing.T) {
	l := New(cas.NewMemory())
	for v := uint64(1); v <= 3; v++ {
		if _, err := l.Commit(v, nil, cellsFor(v, 4, "k")); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := l.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	old := []byte("v1-2") // the first version of k-0002, a chain object's value
	if bytes.Count(raw, old) != 1 {
		t.Fatalf("stream holds %q %d times, want once", old, bytes.Count(raw, old))
	}
	edited := bytes.Replace(raw, old, []byte("v1-X"), 1)
	if _, err := LoadSnapshot(cas.NewMemory(), bytes.NewReader(edited)); err == nil || !strings.Contains(err.Error(), "version chain broken") {
		t.Fatalf("edited chain object: err = %v, want a broken version chain", err)
	}

	// A forged first version of k-0002, added as one more object.
	forged := append([]byte(nil), raw[:len(raw)-1]...)
	body := proof.EncodeVersion(1, []byte("FORGED"), false)
	forged = append(forged, 1, hashutil.DomainCell, byte(len(body)))
	forged = append(append(forged, body...), 0)
	r, err := LoadSnapshot(cas.NewMemory(), bytes.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	hist, err := r.History("t", "c", []byte("k-0002"))
	if err != nil || fmt.Sprint(hist) != fmt.Sprint(mustHistory(t, l, "k-0002")) {
		t.Fatalf("history after a forged object = %v, %v", hist, err)
	}
}

func mustHistory(t *testing.T, l *Ledger, pk string) []cellstore.Cell {
	t.Helper()
	hist, err := l.History("t", "c", []byte(pk))
	if err != nil || len(hist) == 0 {
		t.Fatalf("history of %s: %d versions, %v", pk, len(hist), err)
	}
	return hist
}
