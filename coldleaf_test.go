package spitz_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"spitz/internal/proof"
	"strings"
	"sync"
	"testing"

	"spitz/internal/cas"
	"spitz/internal/cellstore"
	"spitz/internal/core"
	"spitz/internal/durable"
	"spitz/internal/hashutil"
	"spitz/internal/ledger"
	"spitz/internal/posleaf"
	"spitz/internal/query"
	"spitz/internal/wal"
	"spitz/internal/wire"
)

// A durable database whose node store holds one leaf with a byte of its
// second group flipped, the record's CRC rewritten to match: damage only
// the group's hash can see. The leaf is cold — read back from its segment
// after a reopen — and its groups are checked where they are used.

// rewriteNodeRecord flips the payload byte at off of the node-store record
// holding leaf d (FORMAT.md: len u32 | domain u8 | digest | crc u32 |
// payload) and rewrites the record's CRC-32C to match.
func rewriteNodeRecord(t *testing.T, nodesDir string, d hashutil.Digest, off int) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(nodesDir, "seg-*.spz"))
	if err != nil {
		t.Fatal(err)
	}
	const hdr = 4 + 1 + hashutil.DigestSize + 4
	for _, path := range segs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		at := bytes.Index(data, append([]byte{hashutil.DomainPOSLeaf}, d[:]...)) - 4
		if at < 0 {
			continue
		}
		rec := data[at : at+hdr+int(binary.BigEndian.Uint32(data[at:]))]
		rec[hdr+off] ^= 0x01
		castagnoli := crc32.MakeTable(crc32.Castagnoli)
		crc := crc32.Update(crc32.Checksum(rec[:hdr-4], castagnoli), castagnoli, rec[hdr:])
		binary.BigEndian.PutUint32(rec[hdr-4:], crc)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("no record of leaf %s", d.Short())
}

// coldLeafDB writes rows to a durable database, damages a leaf of the head
// tree as above and reopens it. pks are the primary keys of the leaf's
// entries in order; the flip is in the value of entry 9.
func coldLeafDB(t *testing.T) (m *durable.Manager, pks [][]byte) {
	t.Helper()
	dir := t.TempDir()
	opts := durable.Options{Sync: wal.SyncNever, CheckpointInterval: -1, NodeCacheMB: 1}
	m, err := durable.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng := m.Engine()
	for b := 0; b < 40; b++ {
		var puts []core.Put
		for i := b * 20; i < (b+1)*20; i++ {
			puts = append(puts, core.Put{Table: "t", Column: "c", PK: []byte(fmt.Sprintf("pk%04d", i)), Value: []byte(fmt.Sprintf("value-%04d", i))})
		}
		if _, err := eng.Apply("seed", puts); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cells, _, _ := eng.Ledger().Latest()
	var leaf hashutil.Digest
	off := -1
	if err := cells.Tree.WalkNodes(func(level int, body []byte) bool {
		l, err := posleaf.Parse(body)
		if level != 0 || err != nil || l.Count < 24 {
			return true // three groups at least: the damaged one is neither first nor last
		}
		rest := l.Entries
		for i := 0; i < l.Count; i++ {
			var key []byte
			key, _, rest, _ = posleaf.ReadEntry(rest)
			_, _, pk, err := proof.DecodeRef(key)
			if err != nil {
				t.Fatal(err)
			}
			pks = append(pks, append([]byte(nil), pk...))
			if i == 9 {
				off = len(body) - len(rest) - 1
			}
		}
		leaf = cas.Address(hashutil.DomainPOSLeaf, body)
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		t.Fatal("no leaf of three groups")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	rewriteNodeRecord(t, filepath.Join(dir, "nodes"), leaf, off)
	if m, err = durable.Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, pks
}

// TestColdLeafCheckedWhereUsed: a verified point read, a range and an audit
// batch that touch the damaged group fail at the server with ErrCorrupt,
// and no proof bytes leave it; a read of a key in another group of the
// same leaf verifies; a commit that re-frames the group fails, one that
// copies it by root commits — and the damage, copied along, fails the next
// read of it from the new head; a snapshot of the head fails.
func TestColdLeafCheckedWhereUsed(t *testing.T) {
	m, pks := coldLeafDB(t)
	eng := m.Engine()
	fs := serveFaultEngine(t, eng)
	var mu sync.Mutex
	var proved []wire.Response
	fs.setMutate(func(req wire.Request, resp *wire.Response) {
		switch req.Op {
		case wire.OpGetVerified, wire.OpRangeVer, wire.OpProveBatch:
			mu.Lock()
			proved = append(proved, *resp)
			mu.Unlock()
		}
	})
	noProof := func(what string) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if len(proved) == 0 {
			t.Fatalf("%s: no response seen", what)
		}
		r := proved[len(proved)-1]
		if !strings.Contains(r.Err, cas.ErrCorrupt.Error()) || r.Proof != nil {
			t.Fatalf("%s: the server answered %q with a proof: %v", what, r.Err, r.Proof != nil)
		}
	}
	cl := fs.client(t)
	defer cl.Close()

	if _, _, err := cl.GetVerified("t", "c", pks[9]); err == nil {
		t.Fatal("a verified read of the damaged group succeeded")
	}
	noProof("point read")
	if _, err := cl.RangePKVerified("t", "c", pks[6], pks[12]); err == nil {
		t.Fatal("a verified range over the damaged group succeeded")
	}
	noProof("range")
	wc, err := wire.Connect(fs.inner)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	at := eng.Digest()
	resp, err := wc.Do(wire.Request{Op: wire.OpProveBatch, OldDigest: at, OldDigest2: &at, Audits: []ledger.BatchQuery{
		{Table: "t", Column: "c", PK: pks[2]}, {Table: "t", Column: "c", PK: pks[13]}}})
	if err == nil && resp.Err == "" {
		t.Fatal("an audit batch over the damaged group was proven")
	}
	noProof("audit batch")

	if v, found, err := cl.GetVerified("t", "c", pks[2]); err != nil || !found || !strings.HasPrefix(string(v), "value-") {
		t.Fatalf("a key in another group of the leaf: %q %v %v", v, found, err)
	}

	rewrite := func(pk []byte) error {
		_, err := eng.Apply("rewrite", []core.Put{{Table: "t", Column: "c", PK: pk, Value: []byte("rewritten")}})
		return err
	}
	if err := rewrite(pks[2]); err != nil {
		t.Fatalf("a commit that copies the damaged group by its root: %v", err)
	}
	if _, _, err := cl.GetVerified("t", "c", pks[9]); err == nil {
		t.Fatal("the damaged group, copied into the new head's leaf, was read")
	}
	noProof("point read in the new head")
	if v, _, err := cl.GetVerified("t", "c", pks[2]); err != nil || string(v) != "rewritten" {
		t.Fatalf("the rewritten key: %q %v", v, err)
	}
	if err := eng.WriteSnapshot(new(bytes.Buffer)); !errors.Is(err, cas.ErrCorrupt) {
		t.Fatalf("snapshot of a head with a damaged group: %v, want ErrCorrupt", err)
	}
	// A failed commit leaves the engine read-only (fail-stop): last.
	if err := rewrite(pks[9]); !errors.Is(err, cas.ErrCorrupt) {
		t.Fatalf("a commit that re-frames the damaged group: %v, want ErrCorrupt", err)
	}
}

// TestDamagedColumnBoundaryFails: the cell that opens column b of a table
// with columns a, b and c has a value byte flipped in its cold leaf, the
// record's CRC rewritten. Reading the table's columns, a DELETE of one row
// and a SELECT * — local and verified — each fail with ErrCorrupt and
// commit nothing: none of them runs on a column set cut short at the
// damage.
func TestDamagedColumnBoundaryFails(t *testing.T) {
	dir := t.TempDir()
	opts := durable.Options{Sync: wal.SyncNever, CheckpointInterval: -1, NodeCacheMB: 1}
	m, err := durable.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var puts []core.Put
	for i := 0; i < 200; i++ {
		pk := []byte(fmt.Sprintf("pk%04d", i))
		for _, col := range []string{"a", "b", "c"} {
			puts = append(puts, core.Put{Table: "t", Column: col, PK: pk, Value: []byte(col + string(pk))})
		}
	}
	if _, err := m.Engine().Apply("seed", puts); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	first := cellstore.CellPrefix("t", "b", []byte("pk0000"))
	cells, _, _ := m.Engine().Ledger().Latest()
	var leaf hashutil.Digest
	off := -1
	if err := cells.Tree.WalkNodes(func(level int, body []byte) bool {
		l, err := posleaf.Parse(body)
		if level != 0 || err != nil {
			return true
		}
		for i, rest := 0, l.Entries; i < l.Count; i++ {
			var key []byte
			if key, _, rest, err = posleaf.ReadEntry(rest); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(key, first) {
				leaf, off = cas.Address(hashutil.DomainPOSLeaf, body), len(body)-len(rest)-1
				return false
			}
		}
		return true
	}); err != nil || off < 0 {
		t.Fatalf("no leaf holds b's first cell: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	rewriteNodeRecord(t, filepath.Join(dir, "nodes"), leaf, off)
	if m, err = durable.Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	eng := m.Engine()
	height := eng.Ledger().Height()

	if cols, err := eng.Columns("t"); !errors.Is(err, cas.ErrCorrupt) {
		t.Fatalf("Columns over the damaged boundary = %v, %v; want ErrCorrupt", cols, err)
	}
	if res, err := query.ExecStore(query.EngineStore{Eng: eng}, "DELETE FROM t WHERE pk = 'pk0001'"); !errors.Is(err, cas.ErrCorrupt) {
		t.Fatalf("DELETE = %d rows, %v; want ErrCorrupt", res.RowsAffected, err)
	}
	const star = "SELECT * FROM t WHERE pk = 'pk0001'"
	if res, err := query.ExecStore(query.EngineStore{Eng: eng}, star); !errors.Is(err, cas.ErrCorrupt) {
		t.Fatalf("SELECT * = %v, %v; want ErrCorrupt", res.Rows, err)
	}
	stmt, err := query.Parse(star)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := query.ExecVerifiedSelect(eng, stmt.(query.Select), false); !errors.Is(err, cas.ErrCorrupt) {
		t.Fatalf("verified SELECT * = %d cells, %v; want ErrCorrupt", len(res.Cells), err)
	}
	if h := eng.Ledger().Height(); h != height {
		t.Fatalf("height %d after the failed statements, want %d", h, height)
	}
	for _, col := range []string{"a", "c"} { // b shares the damaged group
		if _, err := eng.Get("t", col, []byte("pk0001")); err != nil {
			t.Fatalf("pk0001.%s after the failed DELETE: %v", col, err)
		}
	}
}
