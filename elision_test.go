package spitz_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"spitz"
	"spitz/internal/core"
	"spitz/internal/hashutil"
	"spitz/internal/ledger"
	"spitz/internal/posleaf"
	"spitz/internal/postree"
	"spitz/internal/proof"
	"spitz/internal/wire"
)

// Proof elision over the wire: a client whose verifier already holds the
// index nodes of a key's search path says so, the server ships only the
// rest, and nothing about what a verified read returns — or rejects —
// changes. The structural soundness tests (with the blind-verifier
// reference) live in internal/postree; these drive the real clients.

func elisionPK(i int) []byte { return []byte(fmt.Sprintf("pk%06d", i)) }

func elisionValue(i, gen int) []byte { return []byte(fmt.Sprintf("value-%06d@%d", i, gen)) }

// seedElisionRows writes rows [0, n) in batches through apply.
func seedElisionRows(t testing.TB, n int, apply func(puts []spitz.Put) error) {
	t.Helper()
	for base := 0; base < n; base += 2000 {
		puts := make([]spitz.Put, 0, 2000)
		for i := base; i < base+2000 && i < n; i++ {
			puts = append(puts, spitz.Put{Table: "t", Column: "c", PK: elisionPK(i), Value: elisionValue(i, 0)})
		}
		if err := apply(puts); err != nil {
			t.Fatal(err)
		}
	}
}

const elisionRows = 40000

// startElisionServer is the fault server over an engine with two index
// levels, so point proofs have something to elide.
func startElisionServer(t *testing.T) *faultServer {
	t.Helper()
	eng := core.New(core.Options{})
	seedElisionRows(t, elisionRows, func(puts []spitz.Put) error {
		cp := make([]core.Put, len(puts))
		for i, p := range puts {
			cp[i] = core.Put{Table: p.Table, Column: p.Column, PK: p.PK, Value: p.Value}
		}
		_, err := eng.Apply("seed", cp)
		return err
	})
	return serveFaultEngine(t, eng)
}

// onVerifiedGet restricts a mutator to the responses under test, so the
// digest and consistency traffic beside them stays honest.
func onVerifiedGet(m func(req wire.Request, resp *wire.Response)) func(wire.Request, *wire.Response) {
	return func(req wire.Request, resp *wire.Response) {
		if req.Op == wire.OpGetVerified && resp.Proof != nil {
			m(req, resp)
		}
	}
}

// warmClient returns a client that has read pk once, so its verifier
// holds pk's whole index path.
func warmClient(t *testing.T, fs *faultServer, pk []byte) *spitz.Client {
	t.Helper()
	cl := fs.client(t)
	t.Cleanup(func() { cl.Close() })
	if _, found, err := cl.GetVerified("t", "c", pk); err != nil || !found {
		t.Fatalf("warm-up read: %v %v", found, err)
	}
	return cl
}

// sameResultsTopologies is the embedded DB and one client per topology
// descriptor over the same rows: table t, a value column c (row 4242
// deleted) and a 97-valued numeric group column g, inverted index on
// everywhere.
type sameResultsTopologies struct {
	rows    int
	deleted int
	db      *spitz.DB // the single-engine primary (1 × 0, 1 × 2, embedded)
	// apply commits to every primary.
	apply func(stmt string, puts []spitz.Put)
	// fresh returns new, cold clients, one per name in sameResultsNames
	// (the AuditMode pass needs clients of its own).
	fresh func() []*spitz.Client
}

// The descriptors the table runs over, shards × replicas.
var sameResultsNames = []string{"1x0", "1x2", "4x0", "2x1"}

func sameResultsGroup(i int) []byte { return []byte(fmt.Sprint(i % 97)) }

// serveReplicaOf starts a replica of the deployment behind primary,
// caught up to heights (one per shard), and serves it.
func serveReplicaOf(t *testing.T, primary dialFunc, heights ...uint64) (*spitz.Replica, net.Listener) {
	t.Helper()
	rep, err := spitz.NewReplica(primary, spitz.ReplicaOptions{MaintainInverted: true, ReconnectDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Close)
	for i, h := range heights {
		if err := rep.WaitForHeight(i, h, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	rln, _ := wire.Listen()
	go rep.Serve(rln)
	t.Cleanup(func() { rln.Close() })
	return rep, rln
}

// openReplicatedCluster is a durable cluster and one replica set
// mirroring every shard of it, each behind a listener: the N × 1 topology.
func openReplicatedCluster(t *testing.T, shards int) (cdb *spitz.ClusterDB, rep *spitz.Replica, ln, rln net.Listener) {
	t.Helper()
	cdb, err := spitz.OpenCluster(t.TempDir(), spitz.ClusterOptions{Shards: shards, Options: spitz.Options{MaintainInverted: true,
		Sync: spitz.SyncNever, CheckpointInterval: -1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cdb.Close() })
	ln, dial := serveCluster(t, cdb)
	t.Cleanup(func() { ln.Close() })
	rep, rln = serveReplicaOf(t, dial)
	return cdb, rep, ln, rln
}

// waitClusterReplica waits until rep holds everything cdb has committed.
func waitClusterReplica(t *testing.T, cdb *spitz.ClusterDB, rep *spitz.Replica) {
	t.Helper()
	for i, d := range cdb.ClusterDigest().Shards {
		if err := rep.WaitForHeight(i, d.Height, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

func openSameResultsTopologies(t *testing.T) *sameResultsTopologies {
	t.Helper()
	tp := &sameResultsTopologies{rows: 6000, deleted: 4242}

	// A durable single-engine primary: replicas follow its log.
	db, err := spitz.OpenDir(t.TempDir(), spitz.Options{MaintainInverted: true, Sync: spitz.SyncNever, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tp.db = db
	ln, _ := wire.Listen()
	go db.Serve(ln)
	t.Cleanup(func() { ln.Close() })
	cdb4, err := spitz.OpenCluster("", spitz.ClusterOptions{Shards: 4, Options: spitz.Options{MaintainInverted: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cdb4.Close() })
	_, dial4 := serveCluster(t, cdb4)
	cdb2, rep, ln2, rln2 := openReplicatedCluster(t, 2)

	tp.apply = func(stmt string, puts []spitz.Put) {
		t.Helper()
		_, err := db.Apply(stmt, puts)
		for _, cdb := range []*spitz.ClusterDB{cdb4, cdb2} {
			if err == nil {
				_, err = cdb.Apply(stmt, puts)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for base := 0; base < tp.rows; base += 2000 {
		puts := make([]spitz.Put, 0, 4000)
		for i := base; i < base+2000; i++ {
			puts = append(puts,
				spitz.Put{Table: "t", Column: "c", PK: elisionPK(i), Value: elisionValue(i, 0)},
				spitz.Put{Table: "t", Column: "g", PK: elisionPK(i), Value: sameResultsGroup(i)})
		}
		tp.apply("seed", puts)
	}
	tp.apply("delete", []spitz.Put{
		{Table: "t", Column: "c", PK: elisionPK(tp.deleted), Tombstone: true},
		{Table: "t", Column: "g", PK: elisionPK(tp.deleted), Tombstone: true}})

	_, r1 := serveReplicaOf(t, dialer(ln), db.Height())
	_, r2 := serveReplicaOf(t, dialer(ln), db.Height())
	waitClusterReplica(t, cdb2, rep)
	tp.fresh = func() []*spitz.Client {
		return []*spitz.Client{
			connect(t, dialer(ln)),
			connect(t, dialer(ln), dialer(r1), dialer(r2)),
			connect(t, dial4),
			connect(t, dialer(ln2), dialer(rln2)),
		}
	}
	return tp
}

// verifiedReader is the read surface the result table runs over.
type verifiedReader struct {
	name    string
	get     func(pk []byte) ([]byte, bool, error)
	rangePK func(lo, hi []byte) ([]spitz.Cell, error)
	query   func(stmt string) (spitz.QueryResult, error)
}

func sameResultsReaders(clients []*spitz.Client) (out []verifiedReader) {
	for i, cl := range clients {
		out = append(out, verifiedReader{sameResultsNames[i],
			func(pk []byte) ([]byte, bool, error) { return cl.GetVerified("t", "c", pk) },
			func(lo, hi []byte) ([]spitz.Cell, error) { return cl.RangePKVerified("t", "c", lo, hi) }, cl.Query})
	}
	return out
}

// embedded reads the DB in process, verifying each proof against a fresh
// verifier pinned at the result's digest; SQL runs through Exec.
func (tp *sameResultsTopologies) embedded() verifiedReader {
	verify := func(res spitz.VerifiedResult) error {
		v := spitz.NewVerifier()
		if err := v.Advance(res.Digest, spitz.ConsistencyProof{}); err != nil {
			return err
		}
		return v.VerifyNow(res.Proof)
	}
	return verifiedReader{"embedded",
		func(pk []byte) ([]byte, bool, error) {
			res, err := tp.db.GetVerified("t", "c", pk)
			if err == nil {
				err = verify(res)
			}
			if err != nil || !res.Found {
				return nil, false, err
			}
			return res.Cells[0].Value, true, nil
		},
		func(lo, hi []byte) ([]spitz.Cell, error) {
			res, err := tp.db.RangePKVerified("t", "c", lo, hi)
			if err == nil {
				err = verify(res)
			}
			return res.Cells, err
		},
		tp.db.Exec}
}

// TestGetVerifiedSameResultsEverywhere: the embedded DB and the client
// over every topology descriptor — 1 × 0, 1 × 2, 4 × 0, 2 × 1 (shards ×
// replicas) — agree with a model of the rows on every verified read
// — point reads (hits, deleted rows, misses inside a leaf group, at group
// edges, below the tree's smallest key and above its largest), pk ranges
// (starting and ending at every alignment to group and leaf edges, below
// the minimum, past the maximum, empty, over a deleted row) and SQL
// (range rows, COUNT, SUM, index lookups, point selects)
// — cold and warm, eagerly and in AuditMode, with the rows travelling
// inside the proof only, and with commits landing between the reads, so
// that a warm client's answers arrive elided here and patched there.
func TestGetVerifiedSameResultsEverywhere(t *testing.T) {
	tp := openSameResultsTopologies(t)
	rows := tp.rows
	deleted := elisionPK(tp.deleted)
	clients := tp.fresh()
	eager := append([]verifiedReader{tp.embedded()}, sameResultsReaders(clients)...)

	// churn commits a new version of some row with the value it already
	// has, mostly among the rows the table reads: every answer stays what
	// the model says while the tree under it — the root, the paths of the
	// rows being read — keeps changing.
	rng := rand.New(rand.NewSource(28))
	churn := func() {
		t.Helper()
		i := 2980 + rng.Intn(100)
		if rng.Intn(3) == 0 {
			i = rng.Intn(rows)
		}
		if i == tp.deleted {
			i++
		}
		tp.apply("churn", []spitz.Put{{Table: "t", Column: "c", PK: elisionPK(i), Value: elisionValue(i, 0)},
			{Table: "t", Column: "g", PK: elisionPK(i), Value: sameResultsGroup(i)}})
	}

	keys := []struct {
		pk    []byte
		found bool
		value []byte
	}{
		{elisionPK(0), true, elisionValue(0, 0)},
		{elisionPK(3141), true, elisionValue(3141, 0)},
		{elisionPK(rows - 1), true, elisionValue(rows-1, 0)},
		{deleted, false, nil},
		{[]byte("pk00314x"), false, nil},
		{[]byte("zzzz"), false, nil}, // above the tree's largest key
		{[]byte(""), false, nil},     // below its smallest
	}
	// A run of consecutive rows longer than two leaf groups, and the gap
	// after each: hits in every position of a group, misses inside groups
	// and at both sides of group edges (where two groups ship).
	for i := 3000; i < 3024; i++ {
		keys = append(keys, struct {
			pk    []byte
			found bool
			value []byte
		}{elisionPK(i), true, elisionValue(i, 0)}, struct {
			pk    []byte
			found bool
			value []byte
		}{append(elisionPK(i), '!'), false, nil})
	}

	// Ranges as [lo, hi) row numbers; -1 is an open end. Every start in a
	// run of 70 consecutive rows, with three widths, meets every alignment
	// of a range's two ends to group and leaf edges on every topology's
	// tree (leaves hold ~32 rows, groups 8).
	type span struct{ lo, hi int }
	var spans []span
	for lo := 2990; lo < 3060; lo++ {
		for _, w := range []int{1, 8, 41} {
			spans = append(spans, span{lo, lo + w})
		}
	}
	spans = append(spans,
		span{-1, 3},                          // below the smallest key
		span{rows - 5, -1},                   // past the largest
		span{rows + 7, -1},                   // beyond everything
		span{1500, 1500},                     // empty
		span{1600, 1590},                     // inverted
		span{tp.deleted - 3, tp.deleted + 4}, // over a deleted row
		span{tp.deleted, tp.deleted + 1},     // the deleted row alone
		span{0, rows},                        // everything
	)
	bound := func(i int) []byte {
		if i < 0 {
			return nil
		}
		return elisionPK(i)
	}
	model := func(sp span) (want []int) {
		lo, hi := max(sp.lo, 0), sp.hi
		if hi < 0 || hi > rows {
			hi = rows
		}
		for i := lo; i < hi; i++ {
			if i != tp.deleted {
				want = append(want, i)
			}
		}
		return want
	}
	checkRange := func(r verifiedReader, pass int, sp span) {
		t.Helper()
		lo := bound(sp.lo)
		if sp.lo < 0 {
			lo = []byte("")
		}
		cells, err := r.rangePK(lo, bound(sp.hi))
		want := model(sp)
		if err != nil || len(cells) != len(want) {
			t.Fatalf("%s pass %d range [%d,%d): %d cells, %v, want %d", r.name, pass, sp.lo, sp.hi, len(cells), err, len(want))
		}
		for i, c := range cells {
			if !bytes.Equal(c.PK, elisionPK(want[i])) || !bytes.Equal(c.Value, elisionValue(want[i], 0)) {
				t.Fatalf("%s pass %d range [%d,%d): cell %d is %q=%q", r.name, pass, sp.lo, sp.hi, i, c.PK, c.Value)
			}
		}
	}

	between := func(lo, hi int) string {
		return fmt.Sprintf("pk BETWEEN '%s' AND '%s'", elisionPK(lo), elisionPK(hi-1))
	}
	type sqlCase struct {
		stmt string
		rows []int // the rows expected back, in pk order
		agg  int   // for COUNT and SUM: the expected value; -1 otherwise
	}
	inGroup := func(g int) (out []int) {
		for i := g; i < rows; i += 97 {
			if i != tp.deleted {
				out = append(out, i)
			}
		}
		return out
	}
	sql := []sqlCase{
		{"SELECT c FROM t WHERE " + between(2997, 3043), model(span{2997, 3043}), -1},
		{"SELECT c FROM t WHERE " + between(tp.deleted-2, tp.deleted+3), model(span{tp.deleted - 2, tp.deleted + 3}), -1},
		{"SELECT COUNT(c) FROM t WHERE " + between(3001, 3101), nil, 100},
		{"SELECT COUNT(c) FROM t WHERE " + between(tp.deleted-10, tp.deleted+10), nil, 19},
		{"SELECT SUM(g) FROM t WHERE " + between(970, 970+97), nil, 96 * 97 / 2},
		{"SELECT SUM(g) FROM t WHERE " + between(tp.deleted, tp.deleted+97), nil, 96*97/2 - tp.deleted%97},
		{"SELECT c FROM t WHERE g = '17'", inGroup(17), -1},
		{fmt.Sprintf("SELECT c FROM t WHERE g = '%s'", sameResultsGroup(tp.deleted)), inGroup(tp.deleted % 97), -1},
		{"SELECT c FROM t WHERE g = 'nobody'", nil, -1},
		{fmt.Sprintf("SELECT c FROM t WHERE pk = '%s'", elisionPK(3007)), []int{3007}, -1},
		{fmt.Sprintf("SELECT c, g FROM t WHERE pk = '%s'", deleted), nil, -1},
	}
	checkSQL := func(r verifiedReader, pass int, tc sqlCase) {
		t.Helper()
		res, err := r.query(tc.stmt)
		if err != nil {
			t.Fatalf("%s pass %d %q: %v", r.name, pass, tc.stmt, err)
		}
		if tc.agg >= 0 {
			if !res.HasAgg || res.AggValue != uint64(tc.agg) {
				t.Fatalf("%s pass %d %q: %+v, want %d", r.name, pass, tc.stmt, res, tc.agg)
			}
			return
		}
		if len(res.Rows) != len(tc.rows) {
			t.Fatalf("%s pass %d %q: %d rows, want %d", r.name, pass, tc.stmt, len(res.Rows), len(tc.rows))
		}
		for i, row := range res.Rows {
			if !bytes.Equal(row.PK, elisionPK(tc.rows[i])) || !bytes.Equal(row.Columns["c"], elisionValue(tc.rows[i], 0)) {
				t.Fatalf("%s pass %d %q: row %d is %q=%q", r.name, pass, tc.stmt, i, row.PK, row.Columns["c"])
			}
		}
	}

	for _, r := range eager {
		for pass := 0; pass < 3; pass++ { // cold, then warm twice
			for _, k := range keys {
				churn()
				v, found, err := r.get(k.pk)
				if err != nil || found != k.found || !bytes.Equal(v, k.value) {
					t.Fatalf("%s pass %d key %q: %q %v %v, want %q %v", r.name, pass, k.pk, v, found, err, k.value, k.found)
				}
			}
			for i, sp := range spans {
				if i%3 == 0 {
					churn()
				}
				checkRange(r, pass, sp)
			}
			for _, tc := range sql {
				churn()
				checkSQL(r, pass, tc)
			}
		}
	}
	// The network clients did get elided proofs on the warm passes, and
	// patched ones where a commit had moved a node they held.
	for i, cl := range clients[:2] {
		if st := cl.Verifier().ProofStats(); st.NodesElided == 0 || st.NodesPatched == 0 || st.CacheEntries == 0 {
			t.Fatalf("%s verifier never saw an elided and a patched proof: %+v", sameResultsNames[i], st)
		}
	}

	// The same table in AuditMode, on clients of their own: every read is
	// answered at once and proven at the flush, cold and then warm.
	clients = tp.fresh()
	var auditors []*spitz.Auditor
	for _, cl := range clients {
		aud, err := cl.StartAudit(spitz.AuditMode{MaxPending: 1 << 20, MaxDelay: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		auditors = append(auditors, aud)
	}
	for i, r := range sameResultsReaders(clients) {
		for pass := 0; pass < 2; pass++ {
			for j, k := range keys {
				if j%8 == 0 {
					churn()
				}
				v, found, err := r.get(k.pk)
				if err != nil || found != k.found || !bytes.Equal(v, k.value) {
					t.Fatalf("audit %s pass %d key %q: %q %v %v", r.name, pass, k.pk, v, found, err)
				}
			}
			for j, sp := range spans {
				if j%32 == 0 {
					churn()
				}
				before := auditors[i].Stats().Receipts
				checkRange(r, pass, sp)
				// A range read leaves one receipt per shard, each audited
				// against that shard's own digest.
				if got := auditors[i].Stats().Receipts - before; got != uint64(clients[i].Shards()) {
					t.Fatalf("audit %s range [%d,%d): %d receipts over %d shards", r.name, sp.lo, sp.hi, got, clients[i].Shards())
				}
			}
			for _, tc := range sql {
				checkSQL(r, pass, tc)
			}
			if err := auditors[i].Flush(); err != nil {
				t.Fatalf("audit %s pass %d: flush: %v", r.name, pass, err)
			}
		}
		if st := auditors[i].Stats(); st.Receipts == 0 || st.Audited != st.Receipts {
			t.Fatalf("audit %s: audited %d of %d receipts", r.name, st.Audited, st.Receipts)
		}
	}
	for i, cl := range clients[:2] {
		if st := cl.Verifier().ProofStats(); st.NodesElided == 0 || st.ProofBytes == 0 {
			t.Fatalf("audit %s: the flushes are invisible to ProofStats: %+v", sameResultsNames[i], st)
		}
	}

	// And 1 × 0 over an empty database, eagerly and in AuditMode: every
	// read — the same keys, ranges and statements — is the empty answer.
	empty := spitz.Open(spitz.Options{MaintainInverted: true})
	t.Cleanup(func() { empty.Close() })
	eln, _ := wire.Listen()
	go empty.Serve(eln)
	t.Cleanup(func() { eln.Close() })
	for _, audit := range []bool{false, true} {
		cl := connect(t, dialer(eln))
		var aud *spitz.Auditor
		if audit {
			var err error
			if aud, err = cl.StartAudit(spitz.AuditMode{MaxPending: 1 << 20, MaxDelay: time.Hour}); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range keys {
			if v, found, err := cl.GetVerified("t", "c", k.pk); err != nil || found || v != nil {
				t.Fatalf("empty 1x0 (audit %v) key %q: %q %v %v", audit, k.pk, v, found, err)
			}
		}
		for _, sp := range spans {
			if cells, err := cl.RangePKVerified("t", "c", bound(sp.lo), bound(sp.hi)); err != nil || len(cells) != 0 {
				t.Fatalf("empty 1x0 (audit %v) range [%d,%d): %d cells, %v", audit, sp.lo, sp.hi, len(cells), err)
			}
		}
		for _, tc := range sql {
			if res, err := cl.Query(tc.stmt); err != nil || len(res.Rows) != 0 || res.AggValue != 0 {
				t.Fatalf("empty 1x0 (audit %v) %q: %+v, %v", audit, tc.stmt, res, err)
			}
		}
		if aud != nil {
			if err := aud.Flush(); err != nil {
				t.Fatalf("empty 1x0 audit flush: %v", err)
			}
		}
	}
}

// elidedProofSlices enumerates every byte slice of an elided read's
// response a tamperer could flip: the block binding's only where it
// travels. The value travels inside the leaf; the key only from a server
// that ships it anyway, whose sweep is TestFaultEagerProofBytesTrip's.
func elidedProofSlices(resp *wire.Response) [][]byte {
	var out [][]byte
	out = append(out, resp.Proof.Point.Nodes...)
	out = bindingSlices(out, &resp.Proof.Header, resp.Proof.Inclusion.Path, resp.Proof.Unbound)
	return append(out, resp.Digest.Root[:])
}

// bindingSlices appends the flippable slices of a proof's block binding,
// if it travelled.
func bindingSlices(out [][]byte, h *spitz.BlockHeader, path []hashutil.Digest, unbound bool) [][]byte {
	if unbound {
		return out
	}
	for i := range path {
		out = append(out, path[i][:])
	}
	return append(out, h.CellRoot[:], h.Parent[:], h.BodyHash[:])
}

// verifierState is everything a rejected response must leave alone.
type verifierState struct {
	digest             spitz.Digest
	head               spitz.BlockHeader // the held header of the digest's head block
	held               bool
	verified, deferred int64
	proofs             proof.ProofStats
}

func stateOf(v *spitz.Verifier) verifierState {
	st := verifierState{digest: v.Digest(), proofs: v.ProofStats()}
	pin := v.PinFor(nil)
	st.head, st.held = pin.Head, pin.Held
	st.verified, st.deferred = v.Stats()
	return st
}

// TestElidedResponseEveryByteTrips flips every byte of a warm client's
// response — every index node elided, the leaf pruned to the group (for
// the miss, the groups) that decide the answer — one at a time, on one
// long-lived warm client: each flip is ErrTampered, and a rejected
// response leaves the verifier's digest, counters and node cache exactly
// as they were, so the next response is elided exactly as before.
func TestElidedResponseEveryByteTrips(t *testing.T) {
	es := startElisionServer(t)
	hit := elisionPK(12345)
	cl := warmClient(t, es, hit)
	for _, tc := range []struct {
		name  string
		pk    []byte
		found bool
		value []byte
	}{
		{"hit", hit, true, elisionValue(12345, 0)},
		{"miss", append(elisionPK(12345), '!'), false, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var total, index, leafBytes int
			es.setMutate(onVerifiedGet(func(req wire.Request, resp *wire.Response) {
				nodes := resp.Proof.Point.Nodes
				if len(nodes) != 1 || nodes[0][0] != 0 {
					t.Errorf("%d nodes were shipped to a warm client, want the leaf alone", len(nodes))
				}
				index, leafBytes = len(req.Have), len(nodes[len(nodes)-1])
				total = 0
				for _, s := range elidedProofSlices(resp) {
					total += len(s)
				}
			}))
			if _, found, err := cl.GetVerified("t", "c", tc.pk); err != nil || found != tc.found {
				t.Fatal(found, err)
			}
			if index < 2 || total == 0 {
				t.Fatalf("elided read: %d index positions, %d proof bytes", index, total)
			}
			// The stored leaf holds tens of rows; what ships is a group or two.
			if leafBytes == 0 || leafBytes > 16*len("pk012345value-012345@0")+20*32 {
				t.Fatalf("the leaf slot of a point proof is %d bytes: not pruned", leafBytes)
			}
			warm := stateOf(cl.Verifier())
			step := 1
			if testing.Short() {
				step = 13
			}
			for off := 0; off < total; off += step {
				off := off
				es.setMutate(onVerifiedGet(func(req wire.Request, resp *wire.Response) {
					if len(req.Have) != index {
						t.Errorf("byte %d: the client hinted %d nodes, want %d (was its cache disturbed?)", off, len(req.Have), index)
					}
					detachResponse(t, resp)
					k := off
					for _, s := range elidedProofSlices(resp) {
						if k < len(s) {
							s[k] ^= 0x01
							return
						}
						k -= len(s)
					}
				}))
				if _, _, err := cl.GetVerified("t", "c", tc.pk); !errors.Is(err, spitz.ErrTampered) {
					t.Fatalf("byte %d of an elided response flipped: err = %v", off, err)
				}
			}
			es.setMutate(nil)
			if got := stateOf(cl.Verifier()); got != warm {
				t.Fatalf("rejected responses changed the verifier: %+v -> %+v", warm, got)
			}
			if v, found, err := cl.GetVerified("t", "c", tc.pk); err != nil || found != tc.found || !bytes.Equal(v, tc.value) {
				t.Fatalf("honest read after the sweep: %q %v %v", v, found, err)
			}
		})
	}
}

// TestElisionForgeriesOverTheWire replays the structured forgeries
// against a real client: whatever a lying server does with the elided
// positions, the read is ErrTampered and the cache is not poisoned.
func TestElisionForgeriesOverTheWire(t *testing.T) {
	es := startElisionServer(t)
	pk, otherPK := elisionPK(12345), elisionPK(31000)
	full := func(pk []byte) wire.Response {
		resp := wire.Dispatch(es.eng, wire.Request{Op: wire.OpGetVerified, Table: "t", Column: "c", PK: pk})
		detachResponse(t, &resp)
		return resp
	}
	// coldOnly marks the forgery that, against a warm client, is simply
	// the honest elided response.
	const coldOnly = "leaves every index node out of a cold client's proof"
	forgeries := map[string]func(req wire.Request, resp *wire.Response){
		"leaves out the leaf and claims a value": func(req wire.Request, resp *wire.Response) {
			detachResponse(t, resp)
			n := resp.Proof.Point.Nodes
			resp.Proof.Point.Nodes = n[:len(n)-1]
			resp.Proof.Point.Values = [][]byte{[]byte("VALUE-forged")}
		},
		"empties the leaf and claims a value": func(req wire.Request, resp *wire.Response) {
			detachResponse(t, resp)
			n := resp.Proof.Point.Nodes
			n[len(n)-1] = nil
			resp.Proof.Point.Values = [][]byte{[]byte("VALUE-forged")}
		},
		coldOnly: func(req wire.Request, resp *wire.Response) {
			detachResponse(t, resp)
			n := resp.Proof.Point.Nodes
			resp.Proof.Point.Nodes = n[len(n)-1:]
		},
		"answers with another key's leaf under the asked key": func(req wire.Request, resp *wire.Response) {
			other := full(otherPK)
			other.Proof.Point.Keys = [][]byte{proof.CellPrefix("t", "c", pk)}
			other.Proof.Point.Found, other.Proof.Point.Values = []bool{false}, [][]byte{nil}
			n := other.Proof.Point.Nodes
			other.Proof.Point.Nodes = n[len(n)-1:]
			other.Found = false
			*resp = other
		},
		// The value does not travel beside the proof: the client reads it off
		// the shipped run, and this run — the next row's — does not hold pk.
		"claims the key found over a run that lacks it": func(req wire.Request, resp *wire.Response) {
			detachResponse(t, resp)
			n, next := resp.Proof.Point.Nodes, full(elisionPK(12346)).Proof.Point.Nodes
			n[len(n)-1] = next[len(next)-1]
		},
		"answers another key outright": func(req wire.Request, resp *wire.Response) {
			*resp = full(otherPK)
		},
		"answers with the neighbouring key's proof": func(req wire.Request, resp *wire.Response) {
			*resp = full(elisionPK(12346))
		},
		"flips the found flag": func(req wire.Request, resp *wire.Response) {
			detachResponse(t, resp)
			resp.Proof.Point.Found = []bool{!resp.Proof.Point.Found[0]}
		},
		"ships a key other than the one asked": func(req wire.Request, resp *wire.Response) {
			detachResponse(t, resp)
			resp.Proof.Point.Keys = [][]byte{proof.CellPrefix("t", "c", otherPK)}
		},
		"ships the root where the leaf should be": func(req wire.Request, resp *wire.Response) {
			detachResponse(t, resp)
			resp.Proof.Point.Nodes = full(pk).Proof.Point.Nodes[:1]
		},
		"ships the honest proof and an extra node": func(req wire.Request, resp *wire.Response) {
			other := full(otherPK).Proof.Point.Nodes
			resp.Proof.Point.Nodes = append(append([][]byte(nil), resp.Proof.Point.Nodes...), other[len(other)-1])
		},
		"ships an index node relabelled as a leaf": func(req wire.Request, resp *wire.Response) {
			honest := full(pk)
			n := honest.Proof.Point.Nodes
			n[len(n)-2][0] = 0
			*resp = honest
		},
	}
	for name, forge := range forgeries {
		t.Run(name, func(t *testing.T) {
			for _, kind := range []string{"warm", "cold"} {
				if kind == "warm" && name == coldOnly {
					continue
				}
				cl := es.client(t)
				defer cl.Close()
				if kind == "warm" {
					if _, found, err := cl.GetVerified("t", "c", pk); err != nil || !found {
						t.Fatalf("warm-up read: %v %v", found, err)
					}
				} else if err := cl.SyncDigest(); err != nil { // pin the digest honestly so only the forgery is at stake
					t.Fatal(err)
				}
				before := cl.Verifier().ProofStats()
				es.setMutate(onVerifiedGet(forge))
				_, _, err := cl.GetVerified("t", "c", pk)
				es.setMutate(nil)
				if !errors.Is(err, spitz.ErrTampered) {
					t.Fatalf("%s client: err = %v, want ErrTampered", kind, err)
				}
				if after := cl.Verifier().ProofStats(); after != before {
					t.Fatalf("%s client: rejected forgery moved verifier state: %+v -> %+v", kind, before, after)
				}
				if v, found, err := cl.GetVerified("t", "c", pk); err != nil || !found || !bytes.Equal(v, elisionValue(12345, 0)) {
					t.Fatalf("%s client: honest read after the forgery: %q %v %v", kind, v, found, err)
				}
			}
		})
	}
}

// TestPatchForgeriesOverTheWire: a client that holds the current root and,
// below it on pk's path, nodes one commit old is answered with patches
// against those. Whatever a lying server does with a patched slot, the read
// is ErrTampered and the verifier — digest, counters, node cache — is as it
// was; the honest response then verifies, patches and all.
func TestPatchForgeriesOverTheWire(t *testing.T) {
	es := startElisionServer(t)
	pk, farPK := elisionPK(12345), elisionPK(elisionRows-1)
	const marker = 0xFF
	patchAt := func(resp *wire.Response) int {
		for i, slot := range resp.Proof.Point.Nodes {
			if slot[0] == marker {
				return i
			}
		}
		t.Error("the response carries no patch")
		return 0
	}
	var oldLeaf []byte           // pk's leaf as the warm-up read shipped it
	var unhinted hashutil.Digest // a node the client holds off pk's path
	gen := 0
	staleClient := func() *spitz.Client {
		es.setMutate(onVerifiedGet(func(req wire.Request, resp *wire.Response) {
			n := resp.Proof.Point.Nodes
			oldLeaf = append([]byte(nil), n[len(n)-1]...)
		}))
		cl := warmClient(t, es, pk)
		gen++
		// pk's neighbour rewrites pk's path; farPK, which the far read
		// reads, moves that read — and the client's trust — to the head.
		if _, err := es.eng.Apply("update", []core.Put{{Table: "t", Column: "c", PK: elisionPK(12346), Value: elisionValue(12346, gen)},
			{Table: "t", Column: "c", PK: farPK, Value: elisionValue(elisionRows-1, gen)}}); err != nil {
			t.Fatal(err)
		}
		es.setMutate(onVerifiedGet(func(req wire.Request, resp *wire.Response) {
			n := resp.Proof.Point.Nodes
			unhinted = hashutil.Sum(hashutil.DomainPOSIndex, n[len(n)-2])
		}))
		if _, found, err := cl.GetVerified("t", "c", farPK); err != nil || !found {
			t.Fatalf("far read: %v %v", found, err)
		}
		es.setMutate(nil)
		return cl
	}
	emptyPatch := func(base hashutil.Digest) []byte { return append([]byte{marker}, base[:]...) }
	forgeries := map[string]func(req wire.Request, resp *wire.Response){
		"flips a byte of a patch": func(req wire.Request, resp *wire.Response) {
			detachResponse(t, resp)
			slot := resp.Proof.Point.Nodes[patchAt(resp)]
			slot[len(slot)-1] ^= 1
		},
		"patches against a node the client holds but did not hint": func(req wire.Request, resp *wire.Response) {
			detachResponse(t, resp)
			copy(resp.Proof.Point.Nodes[patchAt(resp)][1:], unhinted[:])
		},
		"carries an edit past the base's last entry": func(req wire.Request, resp *wire.Response) {
			detachResponse(t, resp)
			i := patchAt(resp)
			resp.Proof.Point.Nodes[i] = append(resp.Proof.Point.Nodes[i], 0xFE, 0x7F) // delete entry 4095
		},
		"smuggles a second patch in beside the nodes asked for": func(req wire.Request, resp *wire.Response) {
			detachResponse(t, resp)
			n := resp.Proof.Point.Nodes
			resp.Proof.Point.Nodes = append(n, n[patchAt(resp)][:1+hashutil.DigestSize])
		},
		"passes the old leaf off as the new one, as a patch against itself": func(req wire.Request, resp *wire.Response) {
			detachResponse(t, resp)
			leaf, err := posleaf.ParsePruned(oldLeaf)
			if err != nil {
				t.Error(err)
				return
			}
			n := resp.Proof.Point.Nodes
			n[len(n)-1] = emptyPatch(leaf.Digest())
			resp.Proof.Point.Nodes = append(n, oldLeaf)
		},
	}
	for name, forge := range forgeries {
		t.Run(name, func(t *testing.T) {
			cl := staleClient()
			if len(cl.Verifier().PinFor([]ledger.BatchQuery{{Table: "t", Column: "c", PK: pk}}).Path.Have()) < 2 {
				t.Fatal("the client offers no stale node below the root")
			}
			before := stateOf(cl.Verifier())
			es.setMutate(onVerifiedGet(forge))
			_, _, err := cl.GetVerified("t", "c", pk)
			es.setMutate(nil)
			if !errors.Is(err, spitz.ErrTampered) {
				t.Fatalf("err = %v, want ErrTampered", err)
			}
			if after := stateOf(cl.Verifier()); after != before {
				t.Fatalf("rejected forgery moved verifier state: %+v -> %+v", before, after)
			}
			if v, found, err := cl.GetVerified("t", "c", pk); err != nil || !found || !bytes.Equal(v, elisionValue(12345, 0)) {
				t.Fatalf("honest read after the forgery: %q %v %v", v, found, err)
			}
			if after := cl.Verifier().ProofStats(); after.NodesPatched == before.proofs.NodesPatched {
				t.Fatal("the honest response carried no patch")
			}
		})
	}
	// A client that hinted nothing is owed whole bodies: a patch in its
	// response — here the root as an empty patch against itself — has no
	// base it could stand on.
	t.Run("patches in a hint-less response", func(t *testing.T) {
		cl := es.client(t)
		defer cl.Close()
		if err := cl.SyncDigest(); err != nil {
			t.Fatal(err)
		}
		before := stateOf(cl.Verifier())
		es.setMutate(onVerifiedGet(func(req wire.Request, resp *wire.Response) {
			if len(req.Have) != 0 {
				t.Errorf("a cold client hinted %d nodes", len(req.Have))
			}
			detachResponse(t, resp)
			n := resp.Proof.Point.Nodes
			n[0] = emptyPatch(hashutil.Sum(hashutil.DomainPOSIndex, n[0]))
		}))
		_, _, err := cl.GetVerified("t", "c", pk)
		es.setMutate(nil)
		if !errors.Is(err, spitz.ErrTampered) {
			t.Fatalf("err = %v, want ErrTampered", err)
		}
		if after := stateOf(cl.Verifier()); after != before {
			t.Fatalf("rejected forgery moved verifier state: %+v -> %+v", before, after)
		}
		// And honestly, hint-less means patch-less.
		es.setMutate(onVerifiedGet(func(req wire.Request, resp *wire.Response) {
			for _, slot := range resp.Proof.Point.Nodes {
				if slot[0] == marker {
					t.Error("a hint-less request was answered with a patch")
				}
			}
		}))
		if _, found, err := cl.GetVerified("t", "c", pk); err != nil || !found {
			t.Fatalf("honest cold read: %v %v", found, err)
		}
		es.setMutate(nil)
	})
}

// multiRowProofSlices enumerates every byte slice of a range, query or
// audit response's proof a tamperer could flip. Values and rows travel
// inside the leaves; keys and bounds only from a server that ships them
// anyway, whose sweeps are TestFaultEagerProofBytesTrip's and
// TestFaultEveryBatchProofByteTrips'.
func multiRowProofSlices(resp *wire.Response) [][]byte {
	var out [][]byte
	for _, p := range []*ledger.Proof{resp.Proof, resp.BatchProof} {
		if p == nil {
			continue
		}
		if p.Point != nil {
			out = append(out, p.Point.Nodes...)
		}
		for i := range p.Ranges {
			out = append(out, p.Ranges[i].Nodes...)
		}
		out = bindingSlices(out, &p.Header, p.Inclusion.Path, p.Unbound)
	}
	if resp.Consistency2 != nil {
		for i := range resp.Consistency2.Path {
			out = append(out, resp.Consistency2.Path[i][:])
		}
	}
	return append(out, resp.Digest.Root[:])
}

// flipByte flips bit 0 of byte off of the response's proof material.
func flipByte(t testing.TB, resp *wire.Response, off int) {
	detachResponse(t, resp)
	for _, s := range multiRowProofSlices(resp) {
		if off < len(s) {
			s[off] ^= 0x01
			return
		}
		off -= len(s)
	}
	t.Errorf("offset %d is past the response's proof", off)
}

// warmShape records what an honest warm response looks like: how many
// proof bytes it has, and that it ships leaves only.
func warmShape(t testing.TB, req wire.Request, resp *wire.Response) (total int) {
	var nodes [][]byte
	if resp.Proof != nil {
		nodes = resp.Proof.Ranges[0].Nodes
	} else {
		if resp.BatchProof.Point != nil {
			nodes = append(nodes, resp.BatchProof.Point.Nodes...)
		}
		for i := range resp.BatchProof.Ranges {
			nodes = append(nodes, resp.BatchProof.Ranges[i].Nodes...)
			if resp.BatchProof.Ranges[i].Entries != nil {
				t.Errorf("%s: rows travel beside the leaves", req.Op)
			}
		}
	}
	for _, body := range nodes {
		if body[0] != 0 {
			t.Errorf("%s: an index node was shipped to a warm client", req.Op)
		}
	}
	if len(req.Have) < 2 || len(nodes) == 0 || resp.Cells != nil && req.Op == wire.OpRangeVer {
		t.Errorf("%s: hinted %d nodes, shipped %d, %d loose cells", req.Op, len(req.Have), len(nodes), len(resp.Cells))
	}
	for _, s := range multiRowProofSlices(resp) {
		total += len(s)
	}
	return total
}

// TestMultiRowResponsesEveryByteTrips is TestElidedResponseEveryByteTrips
// for the other proof shapes: a warm client's OpRangeVer response and its
// OpQuery responses (a range plan's range proof, a point plan's batch of
// point proofs) — leaves only, pruned, rows inside them — with every
// proof byte flipped in turn on one long-lived client. Each flip is
// ErrTampered; the verifier's digest, counters and node cache end exactly
// as they started.
func TestMultiRowResponsesEveryByteTrips(t *testing.T) {
	es := startElisionServer(t)
	cl := warmClient(t, es, elisionPK(12345))
	const lo, hi = 12341, 12352
	kinds := []struct {
		name string
		op   wire.Op
		read func() (string, error)
	}{
		{"range", wire.OpRangeVer, func() (string, error) {
			cells, err := cl.RangePKVerified("t", "c", elisionPK(lo), elisionPK(hi))
			return fmt.Sprint(cells), err
		}},
		{"range query", wire.OpQuery, func() (string, error) {
			res, err := cl.Query(fmt.Sprintf("SELECT c FROM t WHERE pk BETWEEN '%s' AND '%s'", elisionPK(lo), elisionPK(hi-1)))
			return fmt.Sprint(res), err
		}},
		{"point query", wire.OpQuery, func() (string, error) {
			res, err := cl.Query(fmt.Sprintf("SELECT c FROM t WHERE pk = '%s'", elisionPK(lo)))
			return fmt.Sprint(res), err
		}},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			honest, err := k.read() // cold for this shape: warms the verifier
			if err != nil {
				t.Fatal(err)
			}
			var total int
			es.setMutate(func(req wire.Request, resp *wire.Response) {
				if req.Op == k.op && (resp.Proof != nil || resp.BatchProof != nil) {
					total = warmShape(t, req, resp)
				}
			})
			if got, err := k.read(); err != nil || got != honest {
				t.Fatalf("warm read: %v", err)
			}
			if total == 0 {
				t.Fatal("no proof bytes enumerated")
			}
			warm := stateOf(cl.Verifier())
			step := 1
			if testing.Short() {
				step = 13
			}
			for off := 0; off < total; off += step {
				off := off
				es.setMutate(func(req wire.Request, resp *wire.Response) {
					if req.Op == k.op && (resp.Proof != nil || resp.BatchProof != nil) {
						flipByte(t, resp, off)
					}
				})
				if _, err := k.read(); !errors.Is(err, spitz.ErrTampered) {
					t.Fatalf("byte %d of %d flipped: err = %v", off, total, err)
				}
			}
			es.setMutate(nil)
			if got := stateOf(cl.Verifier()); got != warm {
				t.Fatalf("rejected responses changed the verifier: %+v -> %+v", warm, got)
			}
			if got, err := k.read(); err != nil || got != honest {
				t.Fatalf("honest read after the sweep: %v", err)
			}
		})
	}
}

// TestAuditResponseEveryByteTrips does the same to a warm AuditMode
// client's OpProveBatch response (two point receipts, a miss and a range,
// leaves only). A client that caught its server lying refuses to go on,
// so each flipped byte gets a client of its own, warmed by an honest
// flush first: the tampered flush must report ErrTampered — from Flush
// and on Errors() — and leave the verifier as the honest flush left it.
func TestAuditResponseEveryByteTrips(t *testing.T) {
	es := startElisionServer(t)
	warmAudit := func() (*spitz.Client, *spitz.Auditor) {
		t.Helper()
		cl := es.client(t)
		aud, err := cl.StartAudit(spitz.AuditMode{MaxPending: 1 << 20, MaxDelay: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			for _, pk := range [][]byte{elisionPK(12345), elisionPK(31000), append(elisionPK(12345), '!')} {
				if _, _, err := cl.GetVerified("t", "c", pk); err != nil {
					t.Fatal(err)
				}
			}
			if cells, err := cl.RangePKVerified("t", "c", elisionPK(20000), elisionPK(20005)); err != nil || len(cells) != 5 {
				t.Fatalf("range: %d cells, %v", len(cells), err)
			}
			if pass == 0 {
				if err := aud.Flush(); err != nil {
					t.Fatalf("honest flush: %v", err)
				}
			}
		}
		return cl, aud
	}
	onProveBatch := func(m func(req wire.Request, resp *wire.Response)) {
		es.setMutate(func(req wire.Request, resp *wire.Response) {
			if req.Op == wire.OpProveBatch && resp.BatchProof != nil && len(req.Have) > 0 {
				m(req, resp)
			}
		})
	}
	var total int
	cl, aud := warmAudit()
	onProveBatch(func(req wire.Request, resp *wire.Response) { total = warmShape(t, req, resp) })
	if err := aud.Flush(); err != nil || total == 0 {
		t.Fatalf("warm flush: %v, %d proof bytes", err, total)
	}
	cl.Close()
	step := 1
	if testing.Short() {
		step = 29
	}
	for off := 0; off < total; off += step {
		off := off
		cl, aud := warmAudit()
		before := stateOf(cl.Verifier())
		onProveBatch(func(req wire.Request, resp *wire.Response) { flipByte(t, resp, off) })
		if err := aud.Flush(); !errors.Is(err, spitz.ErrTampered) {
			t.Fatalf("byte %d of %d flipped: Flush = %v", off, total, err)
		}
		es.setMutate(nil)
		select {
		case err := <-aud.Errors():
			if !errors.Is(err, spitz.ErrTampered) {
				t.Fatalf("byte %d: Errors() delivered %v", off, err)
			}
		default:
			t.Fatalf("byte %d: nothing on Errors()", off)
		}
		if got := stateOf(cl.Verifier()); got != before {
			t.Fatalf("byte %d: rejected audit changed the verifier: %+v -> %+v", off, before, got)
		}
		cl.Close()
	}
}

// TestForgedRangeRowsAreNeverReturned: the rows of a verified range come
// from the verified leaves and from nowhere else. Whatever a server puts
// beside the proof — rows dropped, forged, added, in Response.Cells or in
// RangeProof.Entries — the client returns the true rows (where the
// forgery is to bytes it ignores) or ErrTampered, never the forged ones;
// eagerly, through a query, and at an audit flush.
func TestForgedRangeRowsAreNeverReturned(t *testing.T) {
	es := startElisionServer(t)
	const lo, hi = 12341, 12352
	var want []string
	for i := lo; i < hi; i++ {
		want = append(want, string(elisionValue(i, 0)))
	}
	forgedCell := spitz.Cell{Table: "t", Column: "c", PK: elisionPK(lo), Version: 1, Value: []byte("FORGED")}
	forgedEntry := func(resp *wire.Response) postree.Entry {
		// A well-formed entry: the first true row's key under another
		// value's encoding.
		rp := rangeProofOf(resp)
		return postree.Entry{Key: rp.Start, Value: proof.EncodeVersion(1, []byte("FORGED"), false)}
	}
	forgeries := map[string]func(resp *wire.Response){
		"rows added beside the proof": func(resp *wire.Response) {
			rangeProofOf(resp).Entries = []postree.Entry{forgedEntry(resp)}
		},
		"loose cells forged": func(resp *wire.Response) {
			resp.Cells = []spitz.Cell{forgedCell}
			resp.Found = true
		},
		"loose cells dropped": func(resp *wire.Response) { resp.Cells = nil },
	}
	reads := map[string]func(cl *spitz.Client) ([]string, error){
		"range": func(cl *spitz.Client) (out []string, err error) {
			cells, err := cl.RangePKVerified("t", "c", elisionPK(lo), elisionPK(hi))
			for _, c := range cells {
				out = append(out, string(c.Value))
			}
			return out, err
		},
		"query": func(cl *spitz.Client) (out []string, err error) {
			res, err := cl.Query(fmt.Sprintf("SELECT c FROM t WHERE pk BETWEEN '%s' AND '%s'", elisionPK(lo), elisionPK(hi-1)))
			for _, r := range res.Rows {
				out = append(out, string(r.Columns["c"]))
			}
			return out, err
		},
	}
	for fname, forge := range forgeries {
		for rname, read := range reads {
			cl := es.client(t)
			es.setMutate(func(req wire.Request, resp *wire.Response) {
				if (req.Op == wire.OpRangeVer || req.Op == wire.OpQuery) && rangeProofOf(resp) != nil {
					detachResponse(t, resp)
					forge(resp)
				}
			})
			got, err := read(cl)
			es.setMutate(nil)
			switch {
			case err == nil && fmt.Sprint(got) == fmt.Sprint(want):
			case errors.Is(err, spitz.ErrTampered) && got == nil:
			default:
				t.Fatalf("%s, %s: returned %v, %v", fname, rname, got, err)
			}
			cl.Close()
		}
	}
	// At an audit flush the proven rows are compared with what the client
	// was told at read time: rows forged beside the proof change nothing,
	// a row forged at read time fails the audit.
	for _, lieAtRead := range []bool{false, true} {
		cl := es.client(t)
		aud, err := cl.StartAudit(spitz.AuditMode{MaxPending: 1 << 20, MaxDelay: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		es.setMutate(func(req wire.Request, resp *wire.Response) {
			switch {
			case req.Op == wire.OpRange && lieAtRead:
				detachResponse(t, resp)
				resp.Cells[0].Value = []byte("FORGED")
			case req.Op == wire.OpProveBatch && resp.BatchProof != nil:
				detachResponse(t, resp)
				resp.BatchProof.Ranges[0].Entries = []postree.Entry{forgedEntry(resp)}
			}
		})
		if _, err := cl.RangePKVerified("t", "c", elisionPK(lo), elisionPK(hi)); err != nil {
			t.Fatal(err)
		}
		err = aud.Flush()
		es.setMutate(nil)
		if lieAtRead != errors.Is(err, spitz.ErrTampered) || (!lieAtRead && err != nil) {
			t.Fatalf("audit flush (server lied at read time: %v): %v", lieAtRead, err)
		}
		cl.Close()
	}
}

// rangeProofOf returns the (first) range proof a response carries.
func rangeProofOf(resp *wire.Response) *postree.RangeProof {
	switch {
	case resp.Proof != nil && len(resp.Proof.Ranges) > 0:
		return &resp.Proof.Ranges[0]
	case resp.BatchProof != nil && len(resp.BatchProof.Ranges) > 0:
		return &resp.BatchProof.Ranges[0]
	}
	return nil
}

// TestClientHintsAcrossCommits: the cache needs no invalidation, for any
// proof shape. After a write elsewhere only the changed top of the tree is
// shipped again — once, to whichever read comes first, since point, range
// and query reads share the one cache; after a write under a read all of
// its path is; a tree that gains a level re-ships what is new and elides
// what survived, wherever it now sits; and a replica that answers as of
// an older digest is hinted, elided and verified the same way. Values are
// always the ones current at the digest the read is proven at.
func TestClientHintsAcrossCommits(t *testing.T) {
	es := startElisionServer(t)
	pk := elisionPK(12345)
	cl := warmClient(t, es, pk)
	height := int(cl.Verifier().ProofStats().NodesShipped)
	if height < 3 {
		t.Fatalf("tree height %d, want >= 3", height)
	}
	// traffic runs one read and returns the index nodes its response
	// shipped and the nodes (shipped or resolved from the cache) its
	// verification walked.
	traffic := func(read func()) (index, walked int) {
		t.Helper()
		es.setMutate(func(req wire.Request, resp *wire.Response) {
			var nodes [][]byte
			switch {
			case resp.Proof != nil && resp.Proof.Point != nil:
				nodes = resp.Proof.Point.Nodes
			case resp.Proof != nil && len(resp.Proof.Ranges) > 0:
				nodes = resp.Proof.Ranges[0].Nodes
			case resp.BatchProof != nil:
				if resp.BatchProof.Point != nil {
					nodes = append(nodes, resp.BatchProof.Point.Nodes...)
				}
				for i := range resp.BatchProof.Ranges {
					nodes = append(nodes, resp.BatchProof.Ranges[i].Nodes...)
				}
			default:
				return
			}
			for _, body := range nodes {
				if body[0] != 0 {
					index++
				}
			}
		})
		defer es.setMutate(nil)
		before := cl.Verifier().ProofStats()
		read()
		after := cl.Verifier().ProofStats()
		return index, int(after.NodesShipped-before.NodesShipped) + int(after.NodesElided-before.NodesElided)
	}
	gen := map[int]int{} // the generation each rewritten row is at
	value := func(i int) []byte { return elisionValue(i, gen[i]) }
	point := func() {
		t.Helper()
		if v, found, err := cl.GetVerified("t", "c", pk); err != nil || !found || !bytes.Equal(v, value(12345)) {
			t.Fatalf("point read: %q %v %v, want %q", v, found, err, value(12345))
		}
	}
	const lo, hi = 12330, 12371 // a range around pk: two or three leaves
	scan := func() {
		t.Helper()
		cells, err := cl.RangePKVerified("t", "c", elisionPK(lo), elisionPK(hi))
		if err != nil || len(cells) != hi-lo {
			t.Fatalf("range read: %d cells, %v", len(cells), err)
		}
		for i, c := range cells {
			if !bytes.Equal(c.Value, value(lo+i)) {
				t.Fatalf("range read: row %d is %q, want %q", lo+i, c.Value, value(lo+i))
			}
		}
	}
	query := func() {
		t.Helper()
		res, err := cl.Query(fmt.Sprintf("SELECT c FROM t WHERE pk BETWEEN '%s' AND '%s'", elisionPK(lo), elisionPK(hi-1)))
		if err != nil || len(res.Rows) != hi-lo {
			t.Fatalf("range query: %d rows, %v", len(res.Rows), err)
		}
		for i, row := range res.Rows {
			if !bytes.Equal(row.Columns["c"], value(lo+i)) {
				t.Fatalf("range query: row %d is %q, want %q", lo+i, row.Columns["c"], value(lo+i))
			}
		}
		res, err = cl.Query(fmt.Sprintf("SELECT c FROM t WHERE pk = '%s'", pk))
		if err != nil || len(res.Rows) != 1 || !bytes.Equal(res.Rows[0].Columns["c"], value(12345)) {
			t.Fatalf("point query: %+v, %v", res, err)
		}
	}
	reads := map[string]func(){"point": point, "range": scan, "query": query}
	apply := func(i int) {
		t.Helper()
		gen[i]++
		if _, err := cl.Apply("update", []spitz.Put{{Table: "t", Column: "c", PK: elisionPK(i), Value: value(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	warmAll := func(when string) {
		t.Helper()
		for _, name := range []string{"point", "range", "query"} {
			reads[name]()
			if index, _ := traffic(reads[name]); index != 0 {
				t.Fatalf("%s: a warm %s read was shipped %d index nodes", when, name, index)
			}
		}
	}
	if index, walked := traffic(point); index != 0 || walked != height {
		t.Fatalf("warm point read: %d index nodes shipped, %d nodes walked, want 0 and %d", index, walked, height)
	}
	warmAll("at the start")

	// A write at one end of the key space or the other lands under a
	// different child of the root than pk (which end depends on where the
	// root happens to split): the root changes, the rest of the reads'
	// paths does not — and the new root travels once, to the first read of
	// any shape that needs it. A point or range read whose rows the write
	// left alone is answered at the digest its client trusts, so trust is
	// moved to the head first.
	for _, first := range []string{"point", "range", "query"} {
		var shipped []int
		for _, far := range []int{elisionRows - 1, 0} {
			apply(far)
			if err := cl.SyncDigest(); err != nil {
				t.Fatal(err)
			}
			index, _ := traffic(reads[first])
			shipped = append(shipped, index)
			if index == 1 {
				break
			}
			warmAll("between sibling writes")
		}
		if shipped[len(shipped)-1] != 1 {
			t.Fatalf("after a write in a sibling subtree the %s read shipped %v index nodes, want the root", first, shipped)
		}
		warmAll("after the " + first + " read fetched the new root")
	}
	// A write to pk itself: every node on its path is new, for whichever
	// read meets it first.
	for _, first := range []string{"point", "range", "query"} {
		apply(12345)
		if index, _ := traffic(reads[first]); index != height-1 {
			t.Fatalf("after a write to the key the %s read shipped %d index nodes, want all %d", first, index, height-1)
		}
		warmAll("after the " + first + " read fetched the new path")
	}

	// A bulk insert that grows the tree by a level, and writes pk: the
	// point read meets the grown tree.
	grew := false
	for base := 0; base < 1200000 && !grew; base += 100000 {
		puts := make([]spitz.Put, 100000)
		for i := range puts {
			puts[i] = spitz.Put{Table: "t", Column: "c", PK: []byte(fmt.Sprintf("grow%07d", base+i)), Value: []byte("x")}
		}
		gen[12345]++
		puts = append(puts, spitz.Put{Table: "t", Column: "c", PK: pk, Value: value(12345)})
		if _, err := cl.Apply("grow", puts); err != nil {
			t.Fatal(err)
		}
		_, walked := traffic(point)
		grew = walked > height
		scan()
		query()
		warmAll("on the growing tree")
	}
	if !grew {
		t.Skip("tree did not gain a level within the insert budget")
	}
	if _, walked := traffic(point); walked != height+1 {
		t.Fatalf("warm point read on the taller tree walked %d nodes, want %d", walked, height+1)
	}
}

// TestClientHintsAsOfAnOlderReplicaDigest: of two replicas one stops
// following, so reads alternate between the head and a digest the
// client's trust has already moved past. The older answers — point, range
// and query — are hinted from the same cache, elided by the replica,
// verified against the older digest once the primary has proven it a
// prefix, and carry the values of that older state; the newer ones carry
// the new values; trust never moves backwards.
func TestClientHintsAsOfAnOlderReplicaDigest(t *testing.T) {
	db, err := spitz.OpenDir(t.TempDir(), spitz.Options{Sync: spitz.SyncNever, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	seedElisionRows(t, elisionRows, func(puts []spitz.Put) error { _, err := db.Apply("seed", puts); return err })
	ln, _ := wire.Listen()
	go db.Serve(ln)
	defer ln.Close()
	dialPrimary := func() (*wire.Client, error) { return wire.Connect(ln) }
	var reps [2]*spitz.Replica
	var dials []func() (*wire.Client, error)
	for i := range reps {
		rep, err := spitz.NewReplica(dialPrimary, spitz.ReplicaOptions{ReconnectDelay: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close()
		rln, _ := wire.Listen()
		go rep.Serve(rln)
		defer rln.Close()
		reps[i] = rep
		dials = append(dials, func() (*wire.Client, error) { return wire.Connect(rln) })
	}
	caughtUp := func(rep *spitz.Replica) {
		t.Helper()
		if err := rep.WaitForHeight(0, db.Height(), 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	caughtUp(reps[0])
	caughtUp(reps[1])
	rc := connect(t, dialPrimary, dials...)

	const lo, hi = 12330, 12371
	// readAll makes one read of each shape and returns the generation of
	// row 12345 each of them saw.
	readAll := func() (gens []int) {
		t.Helper()
		genOf := func(v []byte) int {
			for g := 0; g < 2; g++ {
				if bytes.Equal(v, elisionValue(12345, g)) {
					return g
				}
			}
			t.Fatalf("row 12345 read as %q", v)
			return -1
		}
		v, found, err := rc.GetVerified("t", "c", elisionPK(12345))
		if err != nil || !found {
			t.Fatalf("point read: %v %v", found, err)
		}
		gens = append(gens, genOf(v))
		cells, err := rc.RangePKVerified("t", "c", elisionPK(lo), elisionPK(hi))
		if err != nil || len(cells) != hi-lo {
			t.Fatalf("range read: %d cells, %v", len(cells), err)
		}
		gens = append(gens, genOf(cells[12345-lo].Value))
		res, err := rc.Query(fmt.Sprintf("SELECT c FROM t WHERE pk BETWEEN '%s' AND '%s'", elisionPK(lo), elisionPK(hi-1)))
		if err != nil || len(res.Rows) != hi-lo {
			t.Fatalf("range query: %d rows, %v", len(res.Rows), err)
		}
		return append(gens, genOf(res.Rows[12345-lo].Columns["c"]))
	}
	for n := 0; n < 4; n++ { // cold, then warm, on both replicas
		for _, g := range readAll() {
			if g != 0 {
				t.Fatalf("generation %d before any write", g)
			}
		}
	}
	warm := rc.Verifier().ProofStats()

	// Freeze the first replica, move the primary past it — under the
	// reads and elsewhere — and let the second one follow.
	reps[0].Close() // stops following; keeps serving its height as of now
	frozen := reps[0].Height(0)
	for _, i := range []int{12345, 12350, 0, elisionRows - 1} {
		if _, err := db.Apply("ahead", []spitz.Put{{Table: "t", Column: "c", PK: elisionPK(i), Value: elisionValue(i, 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	caughtUp(reps[1])
	seen := map[int]int{}
	for n := 0; n < 12; n++ {
		for _, g := range readAll() {
			seen[g]++
		}
		if d := rc.Verifier().Digest(); n > 1 && d.Height <= frozen {
			t.Fatalf("trusted height %d is not past the frozen replica's %d", d.Height, frozen)
		}
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("reads did not alternate between the two states: %v", seen)
	}
	after := rc.Verifier().ProofStats()
	if elided := after.NodesElided - warm.NodesElided; elided == 0 {
		t.Fatalf("no node was elided once the replicas diverged: %+v -> %+v", warm, after)
	}
}

// TestConcurrentGetVerifiedUnderChurn: several goroutines share one
// client (one verifier, one node cache) while a writer keeps moving the
// head. Every read verifies and returns a value that was really written.
// (The same race with a cache small enough to evict on every read is
// internal/proof's TestConcurrentHintedReadsUnderChurn.)
func TestConcurrentGetVerifiedUnderChurn(t *testing.T) {
	es := startElisionServer(t)
	cl := warmClient(t, es, elisionPK(0))
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(5))
		for gen := 1; ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			i := rng.Intn(elisionRows)
			if _, err := es.eng.Apply("churn", []core.Put{{Table: "t", Column: "c", PK: elisionPK(i), Value: elisionValue(i, gen)}}); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(50 + g)))
			for n := 0; n < 250; n++ {
				i := rng.Intn(elisionRows)
				v, found, err := cl.GetVerified("t", "c", elisionPK(i))
				if err != nil || !found {
					t.Errorf("reader %d: row %d: %v %v", g, i, found, err)
					return
				}
				var row, gen int
				if _, err := fmt.Sscanf(string(v), "value-%06d@%d", &row, &gen); err != nil || row != i {
					t.Errorf("reader %d: row %d returned %q", g, i, v)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	if st := cl.Verifier().ProofStats(); st.NodesElided == 0 {
		t.Fatalf("no node was ever elided under churn: %+v", st)
	}
}

// TestWarmClientOnPointReadShape loads the benchmark's point-read-mem
// data shape (200k rows, 16-byte keys, 100-byte values, one table) and
// checks the acceptance numbers: a warm client is sent one node of four
// per read, and its whole cache is under 1 MiB.
func TestWarmClientOnPointReadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 200k rows")
	}
	const rows = 200000
	db := spitz.Open(spitz.Options{})
	defer db.Close()
	rng := rand.New(rand.NewSource(1))
	pkOf := func(i int) []byte { return []byte(fmt.Sprintf("k%015d", i)) }
	for base := 0; base < rows; base += 10000 {
		puts := make([]spitz.Put, 10000)
		for i := range puts {
			v := make([]byte, 100)
			rng.Read(v)
			puts[i] = spitz.Put{Table: "bench", Column: "v", PK: pkOf(base + i), Value: v}
		}
		if _, err := db.Apply("load", puts); err != nil {
			t.Fatal(err)
		}
	}
	ln, _ := wire.Listen()
	go db.Serve(ln)
	defer ln.Close()
	wc, err := wire.Connect(ln)
	if err != nil {
		t.Fatal(err)
	}
	cl := spitz.NewClient(wc)
	defer cl.Close()
	read := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, found, err := cl.GetVerified("bench", "v", pkOf(rng.Intn(rows))); err != nil || !found {
				t.Fatalf("read: %v %v", found, err)
			}
		}
	}
	read(5000) // the benchmark's per-client warm-up
	warm := cl.Verifier().ProofStats()
	const n = 2000
	read(n)
	st := cl.Verifier().ProofStats()
	shipped, elided := st.NodesShipped-warm.NodesShipped, st.NodesElided-warm.NodesElided
	bytesPerRead := (st.ProofBytes - warm.ProofBytes) / n
	t.Logf("warm client: %d reads shipped %d nodes, elided %d; %d proof bytes/read; cache %d nodes, %d bytes",
		n, shipped, elided, bytesPerRead, st.CacheEntries, st.CacheBytes)
	if shipped+elided != 4*n {
		t.Fatalf("path length is not 4: %d shipped + %d elided over %d reads", shipped, elided, n)
	}
	if elided < 3*n*995/1000 {
		t.Fatalf("elided %d of %d index nodes", elided, 3*n)
	}
	if st.CacheBytes >= 1<<20 {
		t.Fatalf("cache holds %d bytes, want < 1 MiB", st.CacheBytes)
	}
}

// TestWarmClientOnReplicaQueryShape loads the benchmark's replica-query
// data shape (50k rows, a numeric `bal` and a 1000-valued `grp` column,
// inverted index on) behind a primary and a replica, and measures — from
// the client's own ProofStats, no clock involved — what one warm
// 1 × 1 client in AuditMode receives per flush when writes land
// between flushes: the audit of one index-lookup SELECT (100 keys), of 22
// plain gets, and of one 50-row range read. Ceilings are the measured
// figures plus 15 %; the same flushes cost 509 KB, 129 KB and 12.5 KB
// before batch and range proofs were pruned and elided.
func TestWarmClientOnReplicaQueryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 50k rows on a primary and a replica")
	}
	const rows, groups = 50000, 1000
	pkOf := func(i int) []byte { return []byte(fmt.Sprintf("k%015d", i)) }
	// A durable primary: replicas follow its log.
	db, err := spitz.OpenDir(t.TempDir(), spitz.Options{MaintainInverted: true, Sync: spitz.SyncNever, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for base := 0; base < rows; base += 2000 {
		puts := make([]spitz.Put, 0, 4000)
		for i := base; i < base+2000; i++ {
			puts = append(puts,
				spitz.Put{Table: "acct", Column: "bal", PK: pkOf(i), Value: []byte(fmt.Sprint(i % 1000000))},
				spitz.Put{Table: "acct", Column: "grp", PK: pkOf(i), Value: []byte(fmt.Sprint("g", 10000+i%groups))})
		}
		if _, err := db.Apply("load", puts); err != nil {
			t.Fatal(err)
		}
	}
	ln, _ := wire.Listen()
	go db.Serve(ln)
	defer ln.Close()
	dialPrimary := func() (*wire.Client, error) { return wire.Connect(ln) }
	rep, err := spitz.NewReplica(dialPrimary, spitz.ReplicaOptions{MaintainInverted: true, ReconnectDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	rln, _ := wire.Listen()
	go rep.Serve(rln)
	defer rln.Close()
	rc := connect(t, dialPrimary, dialer(rln))
	aud, err := rc.StartAudit(spitz.AuditMode{MaxPending: 1 << 20, MaxDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(17))
	seq := 0
	write := func() {
		t.Helper()
		seq++
		i := rng.Intn(rows)
		if _, err := rc.Apply("update", []spitz.Put{{Table: "acct", Column: "bal", PK: pkOf(i),
			Value: []byte(fmt.Sprint(seq*1000000 + i))}}); err != nil {
			t.Fatal(err)
		}
		if err := rep.WaitForHeight(0, db.Height(), 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	reads := map[string]func(){
		"lookup": func() {
			res, err := rc.Query(fmt.Sprint("SELECT bal FROM acct WHERE grp = 'g", 10000+rng.Intn(groups), "'"))
			if err != nil || len(res.Rows) != rows/groups {
				t.Fatalf("lookup: %d rows, %v", len(res.Rows), err)
			}
		},
		"gets": func() {
			for n := 0; n < 22; n++ {
				if _, found, err := rc.GetVerified("acct", "bal", pkOf(rng.Intn(rows))); err != nil || !found {
					t.Fatalf("get: %v %v", found, err)
				}
			}
		},
		"range": func() {
			lo := rng.Intn(rows - 50)
			cells, err := rc.RangePKVerified("acct", "bal", pkOf(lo), pkOf(lo+50))
			if err != nil || len(cells) != 50 {
				t.Fatalf("range: %d cells, %v", len(cells), err)
			}
		},
	}
	// flush audits what read enqueued and returns what the proofs cost.
	flush := func(read func()) proof.ProofStats {
		t.Helper()
		write()
		read()
		before := rc.Verifier().ProofStats()
		if err := aud.Flush(); err != nil {
			t.Fatal(err)
		}
		after := rc.Verifier().ProofStats()
		return proof.ProofStats{NodesShipped: after.NodesShipped - before.NodesShipped,
			NodesElided: after.NodesElided - before.NodesElided, ProofBytes: after.ProofBytes - before.ProofBytes}
	}
	// Warm the verifier as the benchmark's warm-up does: a few hundred
	// reads of every kind.
	kinds := []string{"lookup", "gets", "range"}
	for n := 0; n < 30; n++ {
		for _, kind := range kinds {
			flush(reads[kind])
		}
	}
	// Measured 27,095 / 6,338 / 2,615 proof bytes per flush, with 54.7 /
	// 14.8 / 1.2 index nodes answered from the cache: a lookup's 100 keys
	// sit in 100 leaves — an entry and its hash path each — under ~70 index
	// nodes, of which one write replaces three, shipped as patches; a lone
	// range read after a write meets a new root, usually a new level-2
	// node, and a level-1 node it may never have seen.
	ceilings := map[string]int64{"lookup": 31200, "gets": 7300, "range": 3050}
	minElided := map[string]int64{"lookup": 46, "gets": 12, "range": 0}
	for _, kind := range kinds {
		const flushes = 10
		var sum proof.ProofStats
		for n := 0; n < flushes; n++ {
			st := flush(reads[kind])
			sum.ProofBytes += st.ProofBytes
			sum.NodesShipped += st.NodesShipped
			sum.NodesElided += st.NodesElided
		}
		t.Logf("%s audit: %d proof bytes, %.1f nodes shipped, %.1f elided per flush",
			kind, sum.ProofBytes/flushes, float64(sum.NodesShipped)/flushes, float64(sum.NodesElided)/flushes)
		if max := ceilings[kind]; sum.ProofBytes/flushes > max {
			t.Fatalf("%s audit costs %d proof bytes per flush, ceiling %d", kind, sum.ProofBytes/flushes, max)
		}
		if sum.NodesElided == 0 || sum.NodesElided/flushes < minElided[kind] {
			t.Fatalf("%s audit: %d index nodes elided over %d flushes", kind, sum.NodesElided, flushes)
		}
	}
	if st := aud.Stats(); st.Audited != st.Receipts || st.Receipts == 0 {
		t.Fatalf("audited %d of %d receipts", st.Audited, st.Receipts)
	}
}
