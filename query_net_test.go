package spitz_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"spitz"
	"spitz/internal/core"
	"spitz/internal/wire"
)

// End-to-end coverage of the networked query surface: statements routed
// through OpQuery against single servers and clusters, with every
// SELECT's batch proof verified client-side, plus the adversarial side —
// byte-flip sweeps and structured forgeries against query proofs, in
// both eager and deferred (AuditMode) verification.

func serveQueryDB(t *testing.T) (*spitz.DB, *spitz.Client) {
	t.Helper()
	db := spitz.Open(spitz.Options{MaintainInverted: true})
	ln, _ := wire.Listen()
	go db.Serve(ln)
	t.Cleanup(func() { ln.Close() })
	wc, err := wire.Connect(ln)
	if err != nil {
		t.Fatal(err)
	}
	cl := spitz.NewClient(wc)
	t.Cleanup(func() { cl.Close() })
	return db, cl
}

func mustQuery(t *testing.T, q interface {
	Query(string) (spitz.QueryResult, error)
}, stmt string) spitz.QueryResult {
	t.Helper()
	res, err := q.Query(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return res
}

func seedInventoryQueries(t *testing.T, q interface {
	Query(string) (spitz.QueryResult, error)
}) {
	t.Helper()
	for _, stmt := range []string{
		"INSERT INTO inv (pk, stock, status) VALUES ('item-a', '10', 'live')",
		"INSERT INTO inv (pk, stock, status) VALUES ('item-b', '20', 'hold')",
		"INSERT INTO inv (pk, stock, status) VALUES ('item-c', '30', 'live')",
		"INSERT INTO inv (pk, stock, status) VALUES ('item-z', '99', 'live')",
	} {
		if res := mustQuery(t, q, stmt); res.RowsAffected != 1 {
			t.Fatalf("%s: RowsAffected = %d", stmt, res.RowsAffected)
		}
	}
}

// TestQueryEndToEnd drives the full statement surface through
// Client.Query over a real connection to each shape of deployment: a
// single server, a 4-shard cluster (mutations commit with 2PC through
// the coordinator, point queries route to owning shards, scans and
// aggregates fan out and merge per-shard verified results), and a 2-shard
// cluster read through a replica set (mutations go to the primary).
func TestQueryEndToEnd(t *testing.T) {
	none := func() {}
	topologies := []struct {
		name string
		// open returns the client and settle, which waits until replicas
		// hold every committed write.
		open func(t *testing.T) (cl *spitz.Client, settle func())
	}{
		{"1x0", func(t *testing.T) (*spitz.Client, func()) {
			db := spitz.Open(spitz.Options{MaintainInverted: true})
			ln, _ := wire.Listen()
			go db.Serve(ln)
			t.Cleanup(func() { ln.Close() })
			return connect(t, dialer(ln)), none
		}},
		{"4x0", func(t *testing.T) (*spitz.Client, func()) {
			db, err := spitz.OpenCluster("", spitz.ClusterOptions{Shards: 4, Options: spitz.Options{MaintainInverted: true}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			ln, dial := serveCluster(t, db)
			t.Cleanup(func() { ln.Close() })
			return connect(t, dial), none
		}},
		{"2x1", func(t *testing.T) (*spitz.Client, func()) {
			cdb, rep, ln, rln := openReplicatedCluster(t, 2)
			return connect(t, dialer(ln), dialer(rln)), func() { waitClusterReplica(t, cdb, rep) }
		}},
	}
	for _, tp := range topologies {
		t.Run(tp.name, func(t *testing.T) {
			cl, settle := tp.open(t)
			var wantSum uint64
			for i := 0; i < 20; i++ {
				status := "live"
				if i%3 == 0 {
					status = "hold"
				} else {
					wantSum += uint64(i)
				}
				stmt := fmt.Sprintf("INSERT INTO inv (pk, stock, status) VALUES ('it%02d', '%d', '%s')", i, i, status)
				if res := mustQuery(t, cl, stmt); res.RowsAffected != 1 {
					t.Fatalf("%s: %+v", stmt, res)
				}
			}
			settle()

			// A range scan is complete, proven, and in pk order across shards.
			res := mustQuery(t, cl, "SELECT stock FROM inv WHERE pk BETWEEN 'it00' AND 'it19'")
			if len(res.Rows) != 20 {
				t.Fatalf("range rows = %d", len(res.Rows))
			}
			for i, r := range res.Rows {
				if want := fmt.Sprintf("it%02d", i); string(r.PK) != want || string(r.Columns["stock"]) != fmt.Sprint(i) {
					t.Fatalf("row %d: %s=%q, want %s", i, r.PK, r.Columns["stock"], want)
				}
			}

			// The same scan filtered by a boolean predicate over proven cells.
			res = mustQuery(t, cl, "SELECT stock FROM inv WHERE pk BETWEEN 'it00' AND 'it19' AND status = 'hold'")
			if len(res.Rows) != 7 || string(res.Rows[0].PK) != "it00" || string(res.Rows[6].PK) != "it18" {
				t.Fatalf("filtered range: %+v", res.Rows)
			}

			// Verified aggregates with a boolean predicate, re-folded
			// client-side from proven cells; disjoint per-shard partials add.
			res = mustQuery(t, cl, "SELECT SUM(stock) FROM inv WHERE pk BETWEEN 'it00' AND 'it19' AND status = 'live'")
			if !res.HasAgg || res.AggValue != wantSum {
				t.Fatalf("SUM = %d, want %d", res.AggValue, wantSum)
			}
			res = mustQuery(t, cl, "SELECT COUNT(stock) FROM inv WHERE pk BETWEEN 'it00' AND 'it19' AND status = 'hold'")
			if !res.HasAgg || res.AggValue != 7 {
				t.Fatalf("COUNT = %d, want 7", res.AggValue)
			}

			// Lookup through the inverted index (predicate only), and a
			// point query routed to the owning shard.
			res = mustQuery(t, cl, "SELECT stock FROM inv WHERE status = 'hold'")
			if len(res.Rows) != 7 {
				t.Fatalf("lookup rows = %d", len(res.Rows))
			}
			res = mustQuery(t, cl, "SELECT stock FROM inv WHERE pk = 'it07'")
			if len(res.Rows) != 1 || string(res.Rows[0].Columns["stock"]) != "7" {
				t.Fatalf("point: %+v", res.Rows)
			}

			// UPDATE of a live row commits; of an absent row affects nothing.
			// DELETE drops the row from index lookups and scans alike.
			if res := mustQuery(t, cl, "UPDATE inv SET status = 'live' WHERE pk = 'it00'"); res.RowsAffected != 1 || res.Block == 0 {
				t.Fatalf("update: %+v", res)
			}
			if res := mustQuery(t, cl, "UPDATE inv SET stock = '1' WHERE pk = 'it99'"); res.RowsAffected != 0 {
				t.Fatalf("absent update affected %d rows", res.RowsAffected)
			}
			if res := mustQuery(t, cl, "DELETE FROM inv WHERE pk = 'it03'"); res.RowsAffected != 1 {
				t.Fatalf("delete: %+v", res)
			}
			settle()
			res = mustQuery(t, cl, "SELECT COUNT(status) FROM inv WHERE pk BETWEEN 'it00' AND 'it19' AND status = 'hold'")
			if res.AggValue != 5 {
				t.Fatalf("COUNT after update+delete = %d, want 5", res.AggValue)
			}
			if res := mustQuery(t, cl, "SELECT stock FROM inv WHERE status = 'hold'"); len(res.Rows) != 5 {
				t.Fatalf("index still surfaces updated or deleted rows: %+v", res.Rows)
			}

			// HISTORY routes by pk: two versions, newest first.
			res = mustQuery(t, cl, "HISTORY inv.status WHERE pk = 'it00'")
			if len(res.Rows) != 2 || string(res.Rows[0].Columns["status"]) != "live" {
				t.Fatalf("history: %+v", res.Rows)
			}
			if len(res.Rows[0].Columns["@version"]) == 0 {
				t.Fatal("history rows carry no @version")
			}

			// Trust advanced along the way, on every shard.
			for i := 0; i < cl.Shards(); i++ {
				if cl.ShardVerifier(i).Digest().Height == 0 {
					t.Fatalf("shard %d verifier never advanced", i)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Adversarial coverage

// queryFaultServer wraps an inverted-index engine behind a response
// mutator, like audit_fault_test's faultServer but seeded for the query
// surface.
type queryFaultServer struct {
	eng   *core.Engine
	inner net.Listener

	mu     sync.Mutex
	mutate func(req wire.Request, resp *wire.Response)
}

func startQueryFaultServer(t *testing.T) *queryFaultServer {
	t.Helper()
	fs := &queryFaultServer{eng: core.New(core.Options{MaintainInverted: true})}
	for i := 0; i < 8; i++ {
		status := "live"
		if i%2 == 1 {
			status = "hold"
		}
		if _, err := fs.eng.Apply("seed", []core.Put{
			{Table: "inv", Column: "stock", PK: []byte(fmt.Sprintf("it%02d", i)), Value: []byte(fmt.Sprintf("%d", i+1))},
			{Table: "inv", Column: "status", PK: []byte(fmt.Sprintf("it%02d", i)), Value: []byte(status)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	fs.inner, _ = wire.Listen()
	srv := wire.NewHandlerServer(wire.MutateHandler(wire.EngineHandler(fs.eng),
		func(req wire.Request, resp *wire.Response) {
			fs.mu.Lock()
			m := fs.mutate
			fs.mu.Unlock()
			if m != nil {
				m(req, resp)
			}
		}))
	go srv.Serve(fs.inner)
	t.Cleanup(func() { srv.Close() })
	return fs
}

func (fs *queryFaultServer) setMutate(m func(req wire.Request, resp *wire.Response)) {
	fs.mu.Lock()
	fs.mutate = m
	fs.mu.Unlock()
}

func (fs *queryFaultServer) client(t *testing.T) *spitz.Client {
	t.Helper()
	wc, err := wire.Connect(fs.inner)
	if err != nil {
		t.Fatal(err)
	}
	return spitz.NewClient(wc)
}

// queryProofByteSlices enumerates every mutable byte slice of an
// OpQuery SELECT response in a stable order for the tamper sweep: first
// what always travels — proof nodes, which hold the proven values and
// rows, inclusion hashes, the digest root — then the keys and range bounds
// a server may ship beside them (withQuestion).
func queryProofByteSlices(resp *wire.Response) (out [][]byte) {
	bp := resp.BatchProof
	if bp == nil {
		return nil
	}
	if bp.Point != nil {
		out = append(out, bp.Point.Nodes...)
	}
	for i := range bp.Ranges {
		out = append(out, bp.Ranges[i].Nodes...)
	}
	for i := range bp.Inclusion.Path {
		out = append(out, bp.Inclusion.Path[i][:])
	}
	out = append(out, resp.Digest.Root[:])
	return append(out, questionSlices(bp)...)
}

// TestQueryProofEveryByteTrips sweeps a byte flip across the entire
// batch proof of each eager query kind — range+predicate, aggregate,
// and index lookup — and requires every flip to surface as ErrTampered:
// zero silent acceptance for the query surface.
func TestQueryProofEveryByteTrips(t *testing.T) {
	fs := startQueryFaultServer(t)
	stmts := []struct {
		name, stmt string
	}{
		{"range", "SELECT stock FROM inv WHERE pk BETWEEN 'it00' AND 'it07' AND status = 'live'"},
		{"aggregate", "SELECT SUM(stock) FROM inv WHERE pk BETWEEN 'it00' AND 'it07'"},
		{"lookup", "SELECT stock FROM inv WHERE status = 'hold'"},
	}
	for _, tc := range stmts {
		t.Run(tc.name, func(t *testing.T) {
			var total int
			fs.setMutate(func(req wire.Request, resp *wire.Response) {
				if req.Op == wire.OpQuery && resp.BatchProof != nil {
					withQuestion(req, resp)
					total = 0
					for _, s := range queryProofByteSlices(resp) {
						total += len(s)
					}
				}
			})
			cl := fs.client(t)
			if _, err := cl.Query(tc.stmt); err != nil {
				t.Fatalf("honest query failed: %v", err)
			}
			cl.Close()
			if total == 0 {
				t.Fatal("no proof bytes enumerated")
			}
			step := 1
			if testing.Short() {
				step = 17
			}
			for off := 0; off < total; off += step {
				off := off
				fs.setMutate(func(req wire.Request, resp *wire.Response) {
					if req.Op != wire.OpQuery || resp.BatchProof == nil {
						return
					}
					withQuestion(req, resp)
					detachResponse(t, resp)
					flipAt(queryProofByteSlices(resp), off)
				})
				cl := fs.client(t)
				_, err := cl.Query(tc.stmt)
				if err == nil {
					t.Fatalf("byte %d: tampered query proof passed silently", off)
				}
				if !errors.Is(err, spitz.ErrTampered) {
					t.Fatalf("byte %d: tamper misreported as %v", off, err)
				}
				cl.Close()
			}
			fs.setMutate(nil)
		})
	}
}

// TestQueryStructuredForgeries covers the forgeries a lying server
// could attempt on the query path beyond single byte flips: dropping
// the proof while claiming rows, narrowing a proven range, claiming an
// empty ledger after trust is pinned, smuggling rows the proof does
// not cover, and a range part too few or too many. A forgery of the
// question the proof answers ships that question (withQuestion), forged.
func TestQueryStructuredForgeries(t *testing.T) {
	const rangeStmt = "SELECT stock FROM inv WHERE pk BETWEEN 'it00' AND 'it07'"
	const twoColumns = "SELECT stock, status FROM inv WHERE pk BETWEEN 'it00' AND 'it07'"
	asked := map[string]bool{"narrow the proven range": true, "swap the aggregate column proof": true}
	cases := []struct {
		name string
		stmt string
		mut  func(resp *wire.Response)
	}{
		{"omit the proof", rangeStmt, func(r *wire.Response) { r.BatchProof = nil }},
		{"claim an empty ledger", rangeStmt, func(r *wire.Response) { *r = wire.Response{} }},
		{"narrow the proven range", rangeStmt, func(r *wire.Response) {
			rp := &r.BatchProof.Ranges[0]
			rp.End = append([]byte(nil), rp.Start...)
			rp.Entries = nil
			rp.Nodes = rp.Nodes[:1]
		}},
		{"cut the rows out of the range's leaf", rangeStmt, func(r *wire.Response) {
			rp := &r.BatchProof.Ranges[0]
			rp.Nodes = cutLeafRows(t, rp.Nodes)
		}},
		{"smuggle an unproven row", "SELECT stock FROM inv WHERE status = 'hold'", func(r *wire.Response) {
			forged := r.Cells[0]
			forged.PK = []byte("it99")
			forged.Value = []byte("9999")
			r.Cells = append(r.Cells, forged)
		}},
		{"swap the aggregate column proof", "SELECT SUM(stock) FROM inv WHERE pk BETWEEN 'it00' AND 'it07'", func(r *wire.Response) {
			// Proof for a different column must not satisfy the plan.
			rp := &r.BatchProof.Ranges[0]
			rp.Start = append([]byte(nil), rp.End...)
		}},
		{"drop one of two range parts", twoColumns, func(r *wire.Response) {
			r.BatchProof.Ranges = r.BatchProof.Ranges[:1]
		}},
		{"carry one range part more", twoColumns, func(r *wire.Response) {
			r.BatchProof.Ranges = append(r.BatchProof.Ranges, r.BatchProof.Ranges[0])
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := startQueryFaultServer(t)
			cl := fs.client(t)
			defer cl.Close()
			// Pin trust with one honest query first, so claimed-empty and
			// proof-less responses cannot hide behind bootstrap.
			if _, err := cl.Query(rangeStmt); err != nil {
				t.Fatalf("honest query: %v", err)
			}
			fs.setMutate(func(req wire.Request, resp *wire.Response) {
				if req.Op == wire.OpQuery && resp.Err == "" {
					if asked[tc.name] {
						withQuestion(req, resp)
					}
					detachResponse(t, resp)
					tc.mut(resp)
				}
			})
			before := stateOf(cl.Verifier())
			_, err := cl.Query(tc.stmt)
			if err == nil {
				t.Fatalf("%s: passed silently", tc.name)
			}
			if !errors.Is(err, spitz.ErrTampered) {
				t.Fatalf("%s: misreported as %v", tc.name, err)
			}
			if after := stateOf(cl.Verifier()); after != before {
				t.Fatalf("%s: the rejected response moved the verifier: %+v -> %+v", tc.name, before, after)
			}
		})
	}
}

// TestQueryAuditMode exercises the deferred path: SELECTs are accepted
// optimistically with one receipt per proof obligation, an honest flush
// verifies them all, and a forged value or an omitted row is caught at
// the flush — completeness holds in audit mode too.
func TestQueryAuditMode(t *testing.T) {
	t.Run("honest flush passes", func(t *testing.T) {
		fs := startQueryFaultServer(t)
		cl := fs.client(t)
		defer cl.Close()
		aud, err := cl.StartAudit(spitz.AuditMode{MaxPending: 1 << 20, MaxDelay: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Query("SELECT stock FROM inv WHERE pk BETWEEN 'it00' AND 'it07' AND status = 'live'")
		if err != nil || len(res.Rows) != 4 {
			t.Fatalf("optimistic range: %d rows, %v", len(res.Rows), err)
		}
		res, err = cl.Query("SELECT SUM(stock) FROM inv WHERE pk BETWEEN 'it00' AND 'it07'")
		if err != nil || res.AggValue != 36 {
			t.Fatalf("optimistic SUM = %d, %v", res.AggValue, err)
		}
		res, err = cl.Query("SELECT stock FROM inv WHERE pk = 'it02'")
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("optimistic point: %+v, %v", res.Rows, err)
		}
		res, err = cl.Query("SELECT stock FROM inv WHERE status = 'hold'")
		if err != nil || len(res.Rows) != 4 {
			t.Fatalf("optimistic lookup: %d rows, %v", len(res.Rows), err)
		}
		if aud.Pending() == 0 {
			t.Fatal("no receipts enqueued")
		}
		if err := aud.Flush(); err != nil {
			t.Fatalf("honest flush failed: %v", err)
		}
	})

	forgeries := []struct {
		name string
		stmt string
		mut  func(resp *wire.Response)
	}{
		{"forged value", "SELECT stock FROM inv WHERE pk BETWEEN 'it00' AND 'it07'", func(r *wire.Response) {
			r.Cells[0].Value = []byte("9999")
		}},
		{"omitted row", "SELECT stock FROM inv WHERE pk BETWEEN 'it00' AND 'it07'", func(r *wire.Response) {
			r.Cells = r.Cells[1:]
		}},
		{"forged point", "SELECT stock FROM inv WHERE pk = 'it03'", func(r *wire.Response) {
			r.Cells[0].Value = []byte("0")
		}},
	}
	for _, tc := range forgeries {
		t.Run(tc.name, func(t *testing.T) {
			fs := startQueryFaultServer(t)
			cl := fs.client(t)
			defer cl.Close()
			aud, err := cl.StartAudit(spitz.AuditMode{MaxPending: 1 << 20, MaxDelay: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			fs.setMutate(func(req wire.Request, resp *wire.Response) {
				if req.Op == wire.OpQuery && len(resp.Cells) > 0 {
					detachResponse(t, resp)
					tc.mut(resp)
				}
			})
			if _, err := cl.Query(tc.stmt); err != nil {
				t.Fatalf("optimistic accept failed: %v", err)
			}
			err = aud.Flush()
			if err == nil {
				t.Fatalf("%s: audit passed silently", tc.name)
			}
			if !errors.Is(err, spitz.ErrTampered) {
				t.Fatalf("%s: misreported as %v", tc.name, err)
			}
		})
	}
}

// TestQueryConcurrentChurn hammers verified queries over the wire while
// writes commit concurrently — under the race detector this doubles as
// the index-maintenance-vs-commit race check on the networked path, and
// in any mode it asserts no false tampering under digest churn.
func TestQueryConcurrentChurn(t *testing.T) {
	db, cl := serveQueryDB(t)
	seedInventoryQueries(t, cl)
	var wg sync.WaitGroup
	wg.Add(2)
	errs := make(chan error, 64)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := db.Exec(fmt.Sprintf("UPDATE inv SET stock = '%d' WHERE pk = 'item-a'", i)); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := cl.Query("SELECT SUM(stock) FROM inv WHERE pk BETWEEN 'item-a' AND 'item-z' AND status = 'live'"); err != nil {
				errs <- err
				return
			}
			if _, err := cl.Query("SELECT stock FROM inv WHERE status = 'hold'"); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("churn: %v", err)
	}
}
