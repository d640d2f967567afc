package spitz_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"spitz"
	"spitz/internal/cas"
	"spitz/internal/core"
	"spitz/internal/ledger"
	"spitz/internal/proof"
	"spitz/internal/wire"
)

// histCell is one write of the history fixture: column "o" has the same
// version shape as "c" with other values, so a body of one cell can be
// offered as the other's.
func histCell(pk, col string, v uint64, val string) spitz.Cell {
	return spitz.Cell{Table: "t", Column: col, PK: []byte(pk), Version: v, Value: []byte(val), Tombstone: val == ""}
}

// historyBlocks: a.c and a.o rewritten, d.c written, deleted and written
// again, g.c written and deleted, f.c folded — versions 4 and 5 committed
// in one block.
var historyBlocks = []struct {
	version uint64
	cells   []spitz.Cell
}{
	{1, []spitz.Cell{histCell("a", "c", 1, "a1"), histCell("a", "o", 1, "o1"), histCell("d", "c", 1, "d1"), histCell("f", "c", 1, "f1"), histCell("g", "c", 1, "g1")}},
	{2, []spitz.Cell{histCell("a", "c", 2, "a2"), histCell("a", "o", 2, "o2"), histCell("d", "c", 2, "")}},
	{3, []spitz.Cell{histCell("a", "c", 3, "a3"), histCell("a", "o", 3, "o3"), histCell("d", "c", 3, "d3"), histCell("g", "c", 3, "")}},
	{5, []spitz.Cell{histCell("f", "c", 5, "f5"), histCell("f", "c", 4, "f4"), histCell("a", "c", 5, "a5"), histCell("a", "o", 5, "o5")}},
}

// historyWant is each fixture cell's history as a client reads it.
var historyWant = map[string]string{
	"a": "5:a5 3:a3 2:a2 1:a1",
	"d": "3:d3 2:<deleted> 1:d1",
	"f": "5:f5 4:f4 1:f1",
	"g": "3:<deleted> 1:g1",
}

func historyString(cells []spitz.Cell) string {
	var b bytes.Buffer
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(' ')
		}
		if c.Tombstone {
			fmt.Fprintf(&b, "%d:<deleted>", c.Version)
		} else {
			fmt.Fprintf(&b, "%d:%s", c.Version, c.Value)
		}
	}
	return b.String()
}

// historyEngines commits the fixture to one engine per shard, each cell to
// the shard that owns its key.
func historyEngines(t *testing.T, shards int) []*core.Engine {
	t.Helper()
	engs := make([]*core.Engine, shards)
	for i := range engs {
		store := cas.NewMemory()
		l := ledger.New(store)
		for _, b := range historyBlocks {
			var cells []spitz.Cell
			for _, c := range b.cells {
				if wire.ShardIndex(c.PK, shards) == i {
					cells = append(cells, c)
				}
			}
			if _, err := l.Commit(b.version, nil, cells); err != nil {
				t.Fatal(err)
			}
		}
		eng, err := core.NewWithLedger(core.Options{Store: store}, l, 1)
		if err != nil {
			t.Fatal(err)
		}
		engs[i] = eng
	}
	return engs
}

// serveEngines serves engines as one deployment of len(engs) shards, each
// response passed through mutate first.
func serveEngines(t *testing.T, engs []*core.Engine, mutate func(wire.Request, *wire.Response)) dialFunc {
	t.Helper()
	r := &wire.Router{Shards: make([]wire.Shard, len(engs))}
	for i, eng := range engs {
		r.Shards[i].Engine = func() *core.Engine { return eng }
	}
	srv := wire.NewHandlerServer(wire.MutateHandler(r, mutate))
	ln, _ := wire.Listen()
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return dialer(ln)
}

// TestHistoryForgeriesOverTheWire: a cell's history is its head, proven as
// a point read is, and the chain of versions the head replaced, each
// hashing to the link of the one after it. On a one-shard and a two-shard
// deployment, and on a read a replica serves, every forgery of the chain
// is ErrTampered — through Client.History and SQL HISTORY, eager or under
// AuditMode — and leaves the verifier as it was; the honest history
// verifies, tombstones and folded versions included.
func TestHistoryForgeriesOverTheWire(t *testing.T) {
	var mu sync.Mutex
	var forge func(eng *core.Engine, req wire.Request, chain [][]byte) [][]byte
	mutateWith := func(engs []*core.Engine) func(wire.Request, *wire.Response) {
		return func(req wire.Request, resp *wire.Response) {
			mu.Lock()
			f := forge
			mu.Unlock()
			if f != nil && req.Op == wire.OpHistory && resp.Err == "" {
				resp.Chain = f(engs[max(req.Shard-1, 0)], req, resp.Chain)
			}
		}
	}
	// chainOf is what an honest server ships for another cell.
	chainOf := func(eng *core.Engine, column, pk string) [][]byte {
		cells, _, _ := eng.Ledger().Latest()
		head, _, err := cells.Tree.Get(proof.CellPrefix("t", column, []byte(pk)))
		if err != nil {
			t.Fatal(err)
		}
		chain, err := eng.Ledger().Chain(head)
		if err != nil {
			t.Fatal(err)
		}
		return chain
	}
	edit := func(body []byte) []byte {
		out := append([]byte(nil), body...)
		out[len(out)-1] ^= 0x01
		return out
	}
	forgeries := []struct {
		name, pk string
		forge    func(eng *core.Engine, chain [][]byte) [][]byte
	}{
		{"a version dropped", "a", func(_ *core.Engine, c [][]byte) [][]byte { return [][]byte{c[0], c[2]} }},
		{"the first version dropped", "a", func(_ *core.Engine, c [][]byte) [][]byte { return c[:2] }},
		{"two versions swapped", "a", func(_ *core.Engine, c [][]byte) [][]byte { return [][]byte{c[1], c[0], c[2]} }},
		{"a value rewritten", "a", func(_ *core.Engine, c [][]byte) [][]byte { return [][]byte{c[0], edit(c[1]), c[2]} }},
		{"an extra body", "a", func(_ *core.Engine, c [][]byte) [][]byte {
			return append(c, proof.EncodeVersion(0, []byte("a0"), false))
		}},
		{"a body from another cell", "a", func(eng *core.Engine, c [][]byte) [][]byte {
			return append([][]byte{chainOf(eng, "o", "a")[0]}, c[1:]...)
		}},
		{"a tombstone hidden", "d", func(_ *core.Engine, c [][]byte) [][]byte { return c[1:] }},
		{"a deleted cell's versions dropped", "g", func(*core.Engine, [][]byte) [][]byte { return nil }},
		{"a folded version dropped", "f", func(_ *core.Engine, c [][]byte) [][]byte { return c[1:] }},
		{"a history claimed for an absent cell", "x", func(*core.Engine, [][]byte) [][]byte {
			return [][]byte{proof.EncodeVersion(1, []byte("x1"), false)}
		}},
	}

	type deployment struct {
		name    string
		clients func(t *testing.T) []*spitz.Client
	}
	deployments := []deployment{
		{"1x0", func(t *testing.T) []*spitz.Client {
			engs := historyEngines(t, 1)
			dial := serveEngines(t, engs, mutateWith(engs))
			audited := connect(t, dial)
			if _, err := audited.StartAudit(spitz.AuditMode{MaxPending: 64}); err != nil {
				t.Fatal(err)
			}
			return []*spitz.Client{connect(t, dial), audited}
		}},
		{"2x0", func(t *testing.T) []*spitz.Client {
			engs := historyEngines(t, 2)
			return []*spitz.Client{connect(t, serveEngines(t, engs, mutateWith(engs)))}
		}},
		{"replica-served", func(t *testing.T) []*spitz.Client {
			engs := historyEngines(t, 1)
			honest := serveEngines(t, engs, func(wire.Request, *wire.Response) {})
			return []*spitz.Client{connect(t, honest, serveEngines(t, engs, mutateWith(engs)))}
		}},
	}
	for _, d := range deployments {
		t.Run(d.name, func(t *testing.T) {
			for ci, cl := range d.clients(t) {
				// Honest first: every fixture cell's history verifies (and
				// trust is pinned before the forgeries).
				for pk, want := range historyWant {
					hist, err := cl.History("t", "c", []byte(pk))
					if err != nil || historyString(hist) != want {
						t.Fatalf("client %d: history of %s = %q, %v; want %q", ci, pk, historyString(hist), err, want)
					}
				}
				res, err := cl.Query("HISTORY t.c WHERE pk = 'a'")
				if err != nil || len(res.Rows) != 4 {
					t.Fatalf("client %d: SQL HISTORY = %d rows, %v", ci, len(res.Rows), err)
				}
				if hist, err := cl.History("t", "c", []byte("x")); err != nil || len(hist) != 0 {
					t.Fatalf("client %d: history of an absent cell = %v, %v", ci, hist, err)
				}
				for _, f := range forgeries {
					i := cl.ShardFor([]byte(f.pk))
					v := cl.ShardVerifier(i)
					digest, stats := v.Digest(), v.ProofStats()
					mu.Lock()
					forge = func(eng *core.Engine, req wire.Request, chain [][]byte) [][]byte {
						if string(req.PK) != f.pk {
							return chain
						}
						return f.forge(eng, chain)
					}
					mu.Unlock()
					hist, err := cl.History("t", "c", []byte(f.pk))
					if !errors.Is(err, spitz.ErrTampered) {
						t.Errorf("client %d, %s: history = %q, %v; want ErrTampered", ci, f.name, historyString(hist), err)
					}
					if _, err := cl.Query(fmt.Sprintf("HISTORY t.c WHERE pk = '%s'", f.pk)); !errors.Is(err, spitz.ErrTampered) {
						t.Errorf("client %d, %s: SQL HISTORY: %v; want ErrTampered", ci, f.name, err)
					}
					mu.Lock()
					forge = nil
					mu.Unlock()
					if v.Digest() != digest || v.ProofStats() != stats {
						t.Errorf("client %d, %s: the rejected history moved the verifier", ci, f.name)
					}
				}
			}
		})
	}
}

// TestHistoryVerifiesAfterRestoreAndReopen: a restored snapshot carries
// every chain, and a durable store keeps them in its node store, so a
// client verifies the same histories from a database restored from a
// snapshot and from one reopened after a checkpoint and a WAL tail.
func TestHistoryVerifiesAfterRestoreAndReopen(t *testing.T) {
	dir := t.TempDir()
	opts := spitz.Options{Sync: spitz.SyncAlways, CheckpointInterval: -1}
	db, err := spitz.OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	write := func(db *spitz.DB, value string, tomb bool) {
		t.Helper()
		if _, err := db.Apply("w", []spitz.Put{{Table: "t", Column: "c", PK: []byte("k"), Value: []byte(value), Tombstone: tomb}}); err != nil {
			t.Fatal(err)
		}
	}
	write(db, "v1", false)
	write(db, "", true)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	write(db, "v3", false) // replayed from the WAL tail on reopen
	verified := func(t *testing.T, db *spitz.DB) string {
		t.Helper()
		ln, _ := wire.Listen()
		go db.Serve(ln)
		defer ln.Close()
		cl := connect(t, dialer(ln))
		hist, err := cl.History("t", "c", []byte("k"))
		if err != nil {
			t.Fatal(err)
		}
		return historyString(hist)
	}
	want := verified(t, db)
	if len(want) == 0 || want[len(want)-len("v1"):] != "v1" {
		t.Fatalf("history before reopen = %q", want)
	}
	var snap bytes.Buffer
	if err := db.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := spitz.OpenDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := verified(t, reopened); got != want {
		t.Fatalf("history after reopen = %q, want %q", got, want)
	}
	restored, err := spitz.Restore(spitz.Options{}, &snap)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got := verified(t, restored); got != want {
		t.Fatalf("history after restore = %q, want %q", got, want)
	}
}

// TestClientSnapshotIsChecked: Client.Snapshot writes a stream only after
// it loads into a scratch ledger at the digest it was sent with, and
// through the digest the client trusts. A server that serves a snapshot
// of another ledger — with that ledger's digest or with its own — or
// flips a byte of it gets ErrTampered, and nothing is written.
func TestClientSnapshotIsChecked(t *testing.T) {
	fs := startFaultServer(t)
	other := core.New(core.Options{})
	if _, err := other.Apply("other", []core.Put{{Table: "t", Column: "c", PK: []byte("pk001"), Value: []byte("FORGED")}}); err != nil {
		t.Fatal(err)
	}
	var otherSnap bytes.Buffer
	otherDigest, err := other.Ledger().WriteSnapshot(&otherSnap)
	if err != nil {
		t.Fatal(err)
	}
	cl := fs.client(t)
	defer cl.Close()

	var honest bytes.Buffer
	if err := cl.Snapshot(&honest); err != nil || honest.Len() == 0 {
		t.Fatalf("honest snapshot: %d bytes, %v", honest.Len(), err)
	}
	if _, _, err := cl.GetVerified("t", "c", []byte("pk001")); err != nil { // trust a digest
		t.Fatal(err)
	}
	for _, row := range []struct {
		name   string
		mutate func(resp *wire.Response)
	}{
		{"another ledger, its digest", func(resp *wire.Response) {
			resp.Value, resp.Digest = otherSnap.Bytes(), otherDigest
		}},
		{"another ledger, this digest", func(resp *wire.Response) { resp.Value = otherSnap.Bytes() }},
		{"a flipped byte", func(resp *wire.Response) {
			resp.Value = append([]byte(nil), resp.Value...)
			resp.Value[len(resp.Value)/2] ^= 0x01
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			fs.setMutate(func(req wire.Request, resp *wire.Response) {
				if req.Op == wire.OpSnapshot {
					row.mutate(resp)
				}
			})
			defer fs.setMutate(nil)
			var w bytes.Buffer
			if err := cl.Snapshot(&w); !errors.Is(err, spitz.ErrTampered) || w.Len() != 0 {
				t.Fatalf("Snapshot = %v with %d bytes written, want ErrTampered and nothing", err, w.Len())
			}
		})
	}
}
