package wire

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"spitz/internal/core"
	"spitz/internal/ledger"
	"spitz/internal/mtree"
	"spitz/internal/proof"
)

// startServer returns a connected client and a cleanup function.
func startServer(t *testing.T) (*Client, *core.Engine) {
	t.Helper()
	eng := core.New(core.Options{})
	srv := NewHandlerServer(EngineHandler(eng))
	ln, transport := Listen()
	t.Logf("transport: %s", transport)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	cl, err := Connect(ln)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, eng
}

func putBatch(n int) []Put {
	out := make([]Put, n)
	for i := range out {
		out[i] = Put{Table: "t", Column: "c", PK: []byte(fmt.Sprintf("pk%04d", i)),
			Value: []byte(fmt.Sprintf("v%04d", i))}
	}
	return out
}

func TestPutGetOverWire(t *testing.T) {
	cl, _ := startServer(t)
	resp, err := cl.Do(Request{Op: OpPut, Statement: "seed", Puts: putBatch(100)})
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	if resp.Digest.Height != 1 {
		t.Fatalf("digest height = %d", resp.Digest.Height)
	}
	resp, err = cl.Do(Request{Op: OpGet, Table: "t", Column: "c", PK: []byte("pk0042")})
	if err != nil || !resp.Found || string(resp.Value) != "v0042" {
		t.Fatalf("get = %+v, %v", resp, err)
	}
	resp, err = cl.Do(Request{Op: OpGet, Table: "t", Column: "c", PK: []byte("nope")})
	if err != nil || resp.Found {
		t.Fatal("absent key found over wire")
	}
}

func TestVerifiedGetOverWire(t *testing.T) {
	cl, _ := startServer(t)
	if _, err := cl.Do(Request{Op: OpPut, Statement: "seed", Puts: putBatch(200)}); err != nil {
		t.Fatal(err)
	}
	req := Request{Op: OpGetVerified, Table: "t", Column: "c", PK: []byte("pk0123")}
	resp, err := cl.Do(req)
	if err != nil || !resp.Found {
		t.Fatalf("verified get: %v", err)
	}
	if resp.Proof == nil {
		t.Fatal("no proof returned")
	}
	if err := resp.Proof.Verify(resp.Digest); err != nil {
		t.Fatalf("proof survived the wire but fails: %v", err)
	}
	cells, err := proofCells(resp, req, nil)
	if err != nil || len(cells) != 1 || string(cells[0].Value) != "v0123" {
		t.Fatal("proof payload wrong after serialization")
	}
}

func TestRangeOverWire(t *testing.T) {
	cl, _ := startServer(t)
	if _, err := cl.Do(Request{Op: OpPut, Statement: "seed", Puts: putBatch(500)}); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Do(Request{Op: OpRange, Table: "t", Column: "c",
		PK: []byte("pk0100"), PKHi: []byte("pk0120")})
	if err != nil || len(resp.Cells) != 20 {
		t.Fatalf("range = %d cells, %v", len(resp.Cells), err)
	}
	req := Request{Op: OpRangeVer, Table: "t", Column: "c", PK: []byte("pk0100"), PKHi: []byte("pk0120")}
	resp, err = cl.Do(req)
	if err != nil || !resp.Found || resp.Proof == nil {
		t.Fatal("verified range failed")
	}
	if err := resp.Proof.Verify(resp.Digest); err != nil {
		t.Fatalf("range proof over wire: %v", err)
	}
	// The rows are read off the verified leaves; none travel beside them.
	if cells, err := proofCells(resp, req, nil); err != nil || len(cells) != 20 || len(resp.Cells) != 0 {
		t.Fatalf("verified range = %d proven cells, %d loose cells, %v", len(cells), len(resp.Cells), err)
	}
}

func TestHistoryAndDigestOps(t *testing.T) {
	cl, _ := startServer(t)
	cl.Do(Request{Op: OpPut, Statement: "s1", Puts: putBatch(10)})
	old, err := cl.Do(Request{Op: OpDigest})
	if err != nil {
		t.Fatal(err)
	}
	cl.Do(Request{Op: OpPut, Statement: "s2", Puts: putBatch(10)})
	resp, err := cl.Do(Request{Op: OpHistory, Table: "t", Column: "c", PK: []byte("pk0001")})
	if err != nil {
		t.Fatal(err)
	}
	// The head's point proof and the one version it replaced.
	v := proof.NewVerifier()
	if err := v.Advance(resp.Digest, mtree.ConsistencyProof{}); err != nil {
		t.Fatal(err)
	}
	hist, err := v.CheckHistory(resp.Proof, resp.Digest, ledger.BatchQuery{Table: "t", Column: "c", PK: []byte("pk0001")}, resp.Chain, &proof.Pin{})
	if err != nil || len(hist) != 2 || len(resp.Chain) != 1 || len(resp.Cells) != 0 {
		t.Fatalf("history = %d versions, %d bodies, %d loose cells, %v", len(hist), len(resp.Chain), len(resp.Cells), err)
	}
	cons, err := cl.Do(Request{Op: OpConsistency, OldDigest: old.Digest})
	if err != nil || cons.Consistency == nil {
		t.Fatal("consistency op failed")
	}
	if err := cons.Consistency.Verify(old.Digest.Root, cons.Digest.Root); err != nil {
		t.Fatalf("wire consistency proof: %v", err)
	}
}

func TestUnknownOp(t *testing.T) {
	cl, _ := startServer(t)
	if _, err := cl.Do(Request{Op: "bogus"}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	eng := core.New(core.Options{})
	srv := NewHandlerServer(EngineHandler(eng))
	ln, _ := Listen()
	go srv.Serve(ln)
	defer srv.Close()

	if cl, err := Connect(ln); err == nil {
		cl.Do(Request{Op: OpPut, Statement: "seed", Puts: putBatch(100)})
		cl.Close()
	} else {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Connect(ln)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for i := 0; i < 50; i++ {
				resp, err := cl.Do(Request{Op: OpGet, Table: "t", Column: "c",
					PK: []byte(fmt.Sprintf("pk%04d", i))})
				if err != nil || !resp.Found {
					t.Errorf("concurrent get failed: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestPipeListenerDirectly(t *testing.T) {
	pl := NewPipeListener()
	eng := core.New(core.Options{})
	srv := NewHandlerServer(EngineHandler(eng))
	go srv.Serve(pl)
	defer srv.Close()
	conn, err := pl.DialPipe()
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(conn)
	defer cl.Close()
	if _, err := cl.Do(Request{Op: OpPut, Statement: "s", Puts: putBatch(5)}); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Do(Request{Op: OpGet, Table: "t", Column: "c", PK: []byte("pk0003")})
	if err != nil || !resp.Found {
		t.Fatal("pipe transport get failed")
	}
	pl.Close()
	if _, err := pl.DialPipe(); err == nil {
		t.Fatal("dial after close succeeded")
	}
}

// TestPipeListenerDialCloseRace: DialPipe racing Close must never panic
// (the old implementation sent on a channel Close had closed) — every
// dial either connects or reports the listener closed. Run under -race.
func TestPipeListenerDialCloseRace(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		pl := NewPipeListener()
		var wg sync.WaitGroup
		// Acceptors drain whatever connects before the close lands.
		for a := 0; a < 2; a++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					conn, err := pl.Accept()
					if err != nil {
						return
					}
					conn.Close()
				}
			}()
		}
		for d := 0; d < 4; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					conn, err := pl.DialPipe()
					if err != nil {
						return // listener closed: the legal outcome
					}
					conn.Close()
				}
			}()
		}
		pl.Close()
		wg.Wait()
	}
}

// TestLookupEqualOverWire: an equality lookup is a SELECT, answered from
// the inverted index with its proof.
func TestLookupEqualOverWire(t *testing.T) {
	eng := core.New(core.Options{MaintainInverted: true})
	srv := NewHandlerServer(EngineHandler(eng))
	ln, _ := Listen()
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	cl, err := Connect(ln)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	puts := []Put{
		{Table: "t", Column: "tag", PK: []byte("a"), Value: []byte("red")},
		{Table: "t", Column: "tag", PK: []byte("b"), Value: []byte("blue")},
		{Table: "t", Column: "tag", PK: []byte("c"), Value: []byte("red")},
	}
	if _, err := cl.Do(Request{Op: OpPut, Statement: "s", Puts: puts}); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Do(Request{Op: OpQuery, Statement: "SELECT tag FROM t WHERE tag = 'red'"})
	if err != nil || resp.BatchProof == nil || len(resp.Cells) != 2 {
		t.Fatalf("lookup: %d cells, proof %v, %v", len(resp.Cells), resp.BatchProof != nil, err)
	}
}

// TestRetiredOpIsUnknown: opcode 6, once the unproven value lookup,
// decodes as no op, and it and the lookup's spelled-out name are refused
// as unknown ops.
func TestRetiredOpIsUnknown(t *testing.T) {
	h := EngineHandler(core.New(core.Options{MaintainInverted: true}))
	enc := AppendRequest(nil, &Request{Op: OpGet, Table: "t", Column: "c", PK: []byte("k")})
	enc[0] = 6
	req, err := DecodeRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []Request{req, {Op: "lookup-eq", Table: "t", Column: "c"}} {
		if resp := h.Handle(req); !strings.Contains(resp.Err, "unknown op") {
			t.Errorf("op %q: answered %+v, want an unknown-op refusal", req.Op, resp)
		}
	}
}

// TestShardMapOnBareEngine: a single-engine server answers the sharded
// discovery ops so shard-aware clients interoperate with it.
func TestShardMapOnBareEngine(t *testing.T) {
	cl, eng := startServer(t)
	resp, err := cl.Do(Request{Op: OpShardMap})
	if err != nil || resp.ShardCount != 1 {
		t.Fatalf("shard map: %+v %v", resp, err)
	}
	if _, err := cl.Do(Request{Op: OpPut, Statement: "s", Puts: putBatch(1)}); err != nil {
		t.Fatal(err)
	}
	resp, err = cl.Do(Request{Op: OpClusterDigest})
	if err != nil || resp.Cluster == nil {
		t.Fatalf("cluster digest: %+v %v", resp, err)
	}
	if len(resp.Cluster.Shards) != 1 || resp.Cluster.Shards[0] != eng.Digest() {
		t.Fatalf("cluster digest mismatch: %+v", resp.Cluster)
	}
	if err := resp.Cluster.Check(); err != nil {
		t.Fatal(err)
	}
}
