package spitz_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spitz"
	"spitz/internal/core"
	"spitz/internal/ledger"
	"spitz/internal/obs"
	"spitz/internal/postree"
	"spitz/internal/wire"
)

// Every verified read — a point read, a pk range scan, a SELECT — is one
// request and the obligations its answer must discharge, run by one eager
// and one optimistic (AuditMode) flow. So one adversary covers them all:
// the forgeries below are the same for every shape and mode, and so is
// the verdict.

// readShape is one kind of verified read against the fault server's rows
// (table t, column c, pk000..pk039).
type readShape struct {
	name            string
	eager, attested wire.Op // the read's op in each mode
	// read returns the answer as text, so answers compare across shapes.
	read func(cl *spitz.Client) (string, error)
	// other asks the read's question about another key or range.
	other func(req wire.Request) wire.Request
}

var readShapes = []readShape{
	{"point", wire.OpGetVerified, wire.OpGet,
		func(cl *spitz.Client) (string, error) {
			v, found, err := cl.GetVerified("t", "c", []byte("pk001"))
			if !found {
				return "", err
			}
			return string(v), err
		},
		func(req wire.Request) wire.Request { req.PK = []byte("pk002"); return req }},
	{"range", wire.OpRangeVer, wire.OpRange,
		func(cl *spitz.Client) (string, error) {
			cells, err := cl.RangePKVerified("t", "c", []byte("pk010"), []byte("pk015"))
			var rows []string
			for _, c := range cells {
				rows = append(rows, string(c.PK)+"="+string(c.Value))
			}
			return strings.Join(rows, " "), err
		},
		func(req wire.Request) wire.Request { req.PK, req.PKHi = []byte("pk011"), []byte("pk016"); return req }},
	{"select", wire.OpQuery, wire.OpQuery,
		func(cl *spitz.Client) (string, error) {
			res, err := cl.Query("SELECT c FROM t WHERE pk BETWEEN 'pk010' AND 'pk014'")
			var rows []string
			for _, r := range res.Rows {
				rows = append(rows, string(r.PK)+"="+string(r.Columns["c"]))
			}
			return strings.Join(rows, " "), err
		},
		func(req wire.Request) wire.Request {
			req.Statement = "SELECT c FROM t WHERE pk BETWEEN 'pk011' AND 'pk015'"
			return req
		}},
}

// TestEveryReadShapeRejectsTheSameForgeries runs every read shape, eagerly
// and in AuditMode, against the same forgeries — each must be ErrTampered,
// at the read or at the audit flush, and an eager read must leave the
// verifier as it found it — and against an honest empty server, whose
// empty answer must be accepted. The forged response is the read's own,
// or the proof round trip behind it: the prefix proof of a replica-served
// read, the batch proof of an audit flush. A direct eager read names its
// trusted height, so the response carries what changed since — the
// consistency proof when the head moved, no block binding when it did
// not and the client holds that block's header — and so do the forgeries.
func TestEveryReadShapeRejectsTheSameForgeries(t *testing.T) {
	// Another shard's ledger, one block taller than the fault server's
	// will be after its commit: a consistency proof of exactly the sizes a
	// forger needs, valid, and about the wrong history.
	other := core.New(core.Options{})
	for i := 0; i < 42; i++ {
		if _, err := other.Apply("other", []core.Put{{Table: "t", Column: "c",
			PK: []byte(fmt.Sprintf("pk%03d", i)), Value: []byte("other")}}); err != nil {
			t.Fatal(err)
		}
	}
	otherCons, err := other.ConsistencyProof(40, 41)
	if err != nil {
		t.Fatal(err)
	}
	unbind := func(resp *wire.Response) {
		if resp.Proof != nil {
			p := ledger.Unbind(*resp.Proof)
			resp.Proof = &p
		}
		if resp.BatchProof != nil {
			bp := ledger.Unbind(*resp.BatchProof)
			resp.BatchProof = &bp
		}
	}
	forgeries := []struct {
		name string
		// The op whose responses are forged in each mode; zero: the read's.
		eagerOn, auditOn wire.Op
		commit           bool // land a block first: the head moves past the client's trust
		warm             bool // read once first: the client holds its head block's header
		replica          bool // read through a replica link
		eagerOnly        bool // a forgery of what only an eager read is sent
		// legToo forges the prefix-proof leg's response too: what a read's
		// response leaves out, the client asks for there.
		legToo bool
		mut    func(fs *faultServer, sh readShape, req wire.Request, resp *wire.Response)
	}{
		{name: "claim an empty ledger after trust",
			mut: func(_ *faultServer, _ readShape, _ wire.Request, resp *wire.Response) { *resp = wire.Response{} }},
		{name: "omit the proof", auditOn: wire.OpProveBatch,
			mut: func(_ *faultServer, _ readShape, _ wire.Request, resp *wire.Response) {
				resp.Proof, resp.BatchProof, resp.Found, resp.Cells = nil, nil, false, nil
			}},
		{name: "omit the prefix proof", eagerOn: wire.OpConsistency, auditOn: wire.OpProveBatch, commit: true, replica: true,
			mut: func(_ *faultServer, _ readShape, _ wire.Request, resp *wire.Response) { resp.Consistency2 = nil }},
		{name: "answer another key or range",
			mut: func(fs *faultServer, sh readShape, req wire.Request, resp *wire.Response) {
				*resp = wire.Dispatch(fs.eng, sh.other(req))
				withQuestion(sh.other(req), resp)
			}},
		// The proof of a read is the proof of its queries, nothing more:
		// a valid sub-proof of the same block beside the answer — a range
		// part on a point read, a point part on a range read — verifies on
		// its own, and only the check that the proof answers exactly the
		// read's queries turns it away. The asked part goes without its
		// question, as the trimmed form sends it, the extra one with its
		// own.
		{name: "carry a sub-proof the read did not ask for", auditOn: wire.OpProveBatch,
			mut: func(fs *faultServer, _ readShape, _ wire.Request, resp *wire.Response) {
				asked := func(req wire.Request) *ledger.Proof {
					resp := wire.Dispatch(fs.eng, req)
					withQuestion(req, &resp)
					return resp.Proof
				}
				extra := func(p *ledger.Proof) *ledger.Proof {
					q := *p
					if q.Point == nil {
						q.Point = asked(wire.Request{Op: wire.OpGetVerified, Table: "t", Column: "c", PK: []byte("pk020")}).Point
					} else {
						rg := asked(wire.Request{Op: wire.OpRangeVer, Table: "t", Column: "c", PK: []byte("pk020"), PKHi: []byte("pk022")})
						q.Ranges = append(append([]postree.RangeProof(nil), q.Ranges...), rg.Ranges...)
					}
					return &q
				}
				if resp.Proof != nil {
					resp.Proof = extra(resp.Proof)
				}
				if resp.BatchProof != nil {
					resp.BatchProof = extra(resp.BatchProof)
				}
			}},
		{name: "carry no sub-proof, only the block binding", auditOn: wire.OpProveBatch,
			mut: func(_ *faultServer, _ readShape, _ wire.Request, resp *wire.Response) {
				bare := func(p *ledger.Proof) *ledger.Proof {
					return &ledger.Proof{Header: p.Header, Inclusion: p.Inclusion, Unbound: p.Unbound}
				}
				if resp.Proof != nil {
					resp.Proof = bare(resp.Proof)
				}
				if resp.BatchProof != nil {
					resp.BatchProof = bare(resp.BatchProof)
				}
			}},
		{name: "omit the consistency proof the head moved by", commit: true, eagerOnly: true, legToo: true,
			mut: func(_ *faultServer, _ readShape, _ wire.Request, resp *wire.Response) { resp.Consistency = nil }},
		{name: "give the consistency proof the wrong sizes", commit: true, eagerOnly: true,
			mut: func(_ *faultServer, _ readShape, _ wire.Request, resp *wire.Response) {
				if resp.Consistency != nil {
					cons := *resp.Consistency
					cons.OldSize--
					resp.Consistency = &cons
				}
			}},
		{name: "prove consistency of another shard's ledger", commit: true, eagerOnly: true,
			mut: func(_ *faultServer, _ readShape, _ wire.Request, resp *wire.Response) { resp.Consistency = &otherCons }},
		{name: "leave the binding out for a client that holds no header", eagerOnly: true,
			mut: func(_ *faultServer, _ readShape, _ wire.Request, resp *wire.Response) { unbind(resp) }},
		{name: "leave the binding out at the trusted height of another root", warm: true, eagerOnly: true,
			mut: func(_ *faultServer, _ readShape, _ wire.Request, resp *wire.Response) {
				unbind(resp)
				resp.Digest.Root[0] ^= 1
			}},
		// The trimmed form: a proof leaves out the question it answers
		// and, unbound, its digest (TestFingerprintCollisionIsAnError has
		// the hint's half).
		{name: "prove another key or range without saying which", eagerOnly: true,
			mut: func(fs *faultServer, sh readShape, req wire.Request, resp *wire.Response) {
				*resp = wire.Dispatch(fs.eng, sh.other(req))
			}},
		{name: "prove a narrower range without saying which", eagerOnly: true,
			mut: func(fs *faultServer, sh readShape, req wire.Request, resp *wire.Response) {
				*resp = wire.Dispatch(fs.eng, narrower(sh, req))
			}},
		{name: "leave the binding and digest out after the head moved", commit: true, warm: true, eagerOnly: true,
			mut: func(_ *faultServer, _ readShape, _ wire.Request, resp *wire.Response) {
				unbind(resp)
				resp.Digest, resp.Consistency = spitz.Digest{}, nil
			}},
	}
	for _, sh := range readShapes {
		for _, audit := range []bool{false, true} {
			mode, op := "eager", sh.eager
			if audit {
				mode, op = "audit", sh.attested
			}
			// read runs the shape in the mode on a client whose trust is
			// pinned before the forger sets to work — warmed by an honest
			// read first when warm is set; an audited read is flushed
			// before it counts. An eager read's verifier state is returned
			// from before the forged read and after it.
			read := func(t *testing.T, fs *faultServer, warm, replica bool, forge func()) (got string, before, after verifierState, err error) {
				cl := fs.client(t)
				if replica {
					cl = connect(t, dialer(fs.inner), dialer(fs.inner))
				}
				t.Cleanup(func() { cl.Close() })
				if err := cl.SyncDigest(); err != nil {
					t.Fatalf("pin trust: %v", err)
				}
				if warm {
					if _, err := sh.read(cl); err != nil {
						t.Fatalf("warm-up read: %v", err)
					}
				}
				forge()
				if !audit {
					before = stateOf(cl.Verifier())
					got, err = sh.read(cl)
					return got, before, stateOf(cl.Verifier()), err
				}
				aud, err := cl.StartAudit(spitz.AuditMode{MaxPending: 1 << 20, MaxDelay: time.Hour})
				if err != nil {
					t.Fatal(err)
				}
				if got, err = sh.read(cl); err == nil {
					err = aud.Flush()
				}
				return got, before, before, err
			}
			for _, fg := range forgeries {
				if audit && fg.eagerOnly {
					continue
				}
				t.Run(sh.name+"/"+mode+"/"+fg.name, func(t *testing.T) {
					fs := startFaultServer(t)
					on := fg.eagerOn
					if audit {
						on = fg.auditOn
					}
					if on == "" {
						on = op
					}
					var forged atomic.Int32
					got, before, after, err := read(t, fs, fg.warm, fg.replica, func() {
						if fg.commit { // the point read's key and a row of each range
							if _, err := fs.eng.Apply("later", []core.Put{{Table: "t", Column: "c", PK: []byte("pk001"), Value: []byte("later")},
								{Table: "t", Column: "c", PK: []byte("pk012"), Value: []byte("later")}}); err != nil {
								t.Fatal(err)
							}
						}
						fs.setMutate(func(req wire.Request, resp *wire.Response) {
							if (req.Op == on || fg.legToo && req.Op == wire.OpConsistency) && resp.Err == "" {
								forged.Add(1)
								fg.mut(fs, sh, req, resp)
							}
						})
					})
					if forged.Load() == 0 {
						t.Fatal("the forgery never reached the client")
					}
					if !errors.Is(err, spitz.ErrTampered) {
						t.Fatalf("answered %q, %v; want ErrTampered", got, err)
					}
					if after != before {
						t.Fatalf("the rejected response moved the verifier: %+v -> %+v", before, after)
					}
				})
			}
			t.Run(sh.name+"/"+mode+"/honest empty server", func(t *testing.T) {
				got, _, _, err := read(t, serveFaultEngine(t, core.New(core.Options{})), false, false, func() {})
				if err != nil || got != "" {
					t.Fatalf("empty server: %q, %v; want the empty answer", got, err)
				}
			})
		}
	}
}

// FuzzVerifiedRead delivers, in place of the honest response to each
// eager read shape — seeded as it travels and with the question its
// proofs answer, as a server may ship it (withQuestion) — whatever the
// fuzzer makes of its encoding — decoded,
// it reaches a client in one of the three states an honest response is
// shaped by: trust pinned to the head (a bound proof), pinned one block
// behind it (a bound proof and the consistency proof from there), or at
// the head holding its head block's header (a proof without its
// binding). The client must return the honest answer or an error: never
// other data, never fewer rows.
func FuzzVerifiedRead(f *testing.F) {
	fs := startFaultServer(f)
	behind := fs.eng.Digest()
	if _, err := fs.eng.Apply("later", []core.Put{{Table: "t", Column: "c",
		PK: []byte("pk039"), Value: []byte("later")}}); err != nil {
		f.Fatal(err)
	}
	client := func(t testing.TB, sh readShape, form int) *spitz.Client {
		cl := fs.client(t)
		var err error
		switch form {
		case 0:
			err = cl.SyncDigest()
		case 1:
			err = cl.Verifier().Advance(behind, spitz.ConsistencyProof{})
		case 2:
			_, err = sh.read(cl)
		}
		if err != nil {
			t.Fatalf("%s: client in form %d: %v", sh.name, form, err)
		}
		return cl
	}
	const forms = 3
	honest := make([]string, len(readShapes))
	for form := 0; form < forms; form++ {
		for i, sh := range readShapes {
			var seed, askedSeed []byte
			fs.setMutate(func(req wire.Request, resp *wire.Response) {
				if req.Op == sh.eager {
					seed = wire.AppendResponse(nil, resp)
					asked := *resp
					detachResponse(f, &asked)
					withQuestion(req, &asked)
					askedSeed = wire.AppendResponse(nil, &asked)
				}
			})
			cl := client(f, sh, form)
			var err error
			honest[i], err = sh.read(cl)
			cl.Close()
			if err != nil || honest[i] == "" || seed == nil {
				f.Fatalf("%s, form %d: honest read %q, %v", sh.name, form, honest[i], err)
			}
			f.Add(uint8(form*len(readShapes)+i), seed)
			f.Add(uint8(form*len(readShapes)+i), askedSeed)
		}
	}
	fs.setMutate(nil)
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		i, form := int(shape)%len(readShapes), int(shape)/len(readShapes)%forms
		sh := readShapes[i]
		resp, err := wire.DecodeResponse(data)
		if err != nil {
			return
		}
		cl := client(t, sh, form)
		defer cl.Close()
		fs.setMutate(func(req wire.Request, r *wire.Response) {
			if req.Op == sh.eager {
				*r = resp
			}
		})
		defer fs.setMutate(nil)
		got, err := sh.read(cl)
		if err == nil && got != honest[i] {
			t.Fatalf("%s: answered %q, the honest answer is %q", sh.name, got, honest[i])
		}
	})
}

// readAfterCommits runs one shape's eager read on cl after each of
// rounds commits to fs's engine, and reads twice more with no commit in
// between: every answer must be a cold client's, and trust must end at
// the engine's head.
func readAfterCommits(t *testing.T, fs *faultServer, cl *spitz.Client, sh readShape, rounds int) {
	t.Helper()
	check := func(step string) {
		t.Helper()
		cold := fs.client(t)
		want, err := sh.read(cold)
		cold.Close()
		if err != nil {
			t.Fatalf("%s: cold read: %v", step, err)
		}
		if got, err := sh.read(cl); err != nil || got != want {
			t.Fatalf("%s: %q, %v; want %q", step, got, err, want)
		}
	}
	for r := 0; r < rounds; r++ {
		var puts []core.Put
		for i := 0; i < 40; i++ {
			puts = append(puts, core.Put{Table: "t", Column: "c",
				PK: []byte(fmt.Sprintf("pk%03d", i)), Value: []byte(fmt.Sprintf("round%d-%03d", r, i))})
		}
		if _, err := fs.eng.Apply("round", puts); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after commit %d", r+1))
	}
	check("a warm read")
	check("another warm read")
	if d := cl.Verifier().Digest(); d != fs.eng.Digest() {
		t.Fatalf("trust at height %d, the server's head is %d", d.Height, fs.eng.Digest().Height)
	}
}

// TestTrustPinnedToTheEmptyLedger: a client whose digest sync found an
// empty server trusts the empty ledger, which every ledger extends. The
// reads after the server's first commits must verify — the first takes
// the head on first use, later ones advance on their own responses.
func TestTrustPinnedToTheEmptyLedger(t *testing.T) {
	for _, sh := range readShapes {
		t.Run(sh.name, func(t *testing.T) {
			fs := serveFaultEngine(t, core.New(core.Options{}))
			cl := fs.client(t)
			defer cl.Close()
			if err := cl.SyncDigest(); err != nil {
				t.Fatal(err)
			}
			readAfterCommits(t, fs, cl, sh, 2)
		})
	}
}

// TestServerThatIgnoresTrustedHeight: a binary/v3 server built before
// reads named the client's trusted height answers as if they did not — a
// bound proof, and no consistency proof when its head moved. Its client
// must still verify every read: what the response left out is asked for
// on the prefix-proof leg.
func TestServerThatIgnoresTrustedHeight(t *testing.T) {
	for _, sh := range readShapes {
		t.Run(sh.name, func(t *testing.T) {
			fs := startFaultServer(t)
			fs.setMutate(func(req wire.Request, resp *wire.Response) {
				if req.Op == sh.eager && (req.Height != 0 || req.HeadHeld) {
					req.Height, req.HeadHeld = 0, false
					*resp = wire.Dispatch(fs.eng, req)
				}
			})
			cl := fs.client(t)
			defer cl.Close()
			if _, err := sh.read(cl); err != nil {
				t.Fatal(err)
			}
			readAfterCommits(t, fs, cl, sh, 2)
		})
	}
}

// TestRejectedChurnedReadLeavesVerifierUnchanged: a read after a commit
// whose response proves the head's move honestly but forges the cell
// proof is rejected, and leaves the verifier exactly as it was — its
// digest not one block further on the strength of a response it refused,
// its held header, counters and node cache untouched.
func TestRejectedChurnedReadLeavesVerifierUnchanged(t *testing.T) {
	fs := startFaultServer(t)
	cl := fs.client(t)
	defer cl.Close()
	if _, _, err := cl.GetVerified("t", "c", []byte("pk001")); err != nil {
		t.Fatal(err)
	}
	before := stateOf(cl.Verifier())
	if _, err := fs.eng.Apply("later", []core.Put{{Table: "t", Column: "c",
		PK: []byte("pk039"), Value: []byte("later")}}); err != nil {
		t.Fatal(err)
	}
	fs.setMutate(func(req wire.Request, resp *wire.Response) {
		if req.Op == wire.OpGetVerified && resp.Proof != nil {
			detachResponse(t, resp)
			leaf := resp.Proof.Point.Nodes[len(resp.Proof.Point.Nodes)-1]
			leaf[len(leaf)-1] ^= 0x01
		}
	})
	if _, _, err := cl.GetVerified("t", "c", []byte("pk001")); !errors.Is(err, spitz.ErrTampered) {
		t.Fatalf("forged cell proof after a commit: err = %v, want ErrTampered", err)
	}
	if after := stateOf(cl.Verifier()); after != before {
		t.Fatalf("the rejected response moved the verifier: %+v -> %+v", before, after)
	}
}

// TestTrustCountersFollowTheResponse: the client's side of trust is on
// /metrics. A warm read with no commit since is answered at the trusted
// digest, its proof without the block binding; a read after a commit
// advances trust on its own response, with no round trip for it; a
// replica-served read at a digest older than the primary's advances it
// on the prefix-proof leg, never on the replica's word.
func TestTrustCountersFollowTheResponse(t *testing.T) {
	delta := func(name string) func() uint64 {
		c := obs.Default.Counter(name)
		base := c.Value()
		return func() uint64 { return c.Value() - base }
	}
	elided := delta("spitz_client_bindings_elided_total")
	viaResponse := delta(`spitz_client_trust_advances_total{via="response"}`)
	viaLeg := delta(`spitz_client_trust_advances_total{via="leg"}`)
	legs := delta(`spitz_wire_ops_total{op="consistency"}`)
	expect := func(step string, e, r, l, trips uint64) {
		t.Helper()
		if elided() != e || viaResponse() != r || viaLeg() != l || legs() != trips {
			t.Fatalf("%s: bindings elided %d, advances via response %d and via leg %d, consistency round trips %d; want %d, %d, %d, %d",
				step, elided(), viaResponse(), viaLeg(), legs(), e, r, l, trips)
		}
	}

	fs := startFaultServer(t)
	cl := fs.client(t)
	defer cl.Close()
	if _, _, err := cl.GetVerified("t", "c", []byte("pk001")); err != nil {
		t.Fatal(err)
	}
	expect("a first read", 0, 0, 0, 0)
	if _, _, err := cl.GetVerified("t", "c", []byte("pk002")); err != nil {
		t.Fatal(err)
	}
	expect("a warm read, no commit since", 1, 0, 0, 0)
	if _, err := fs.eng.Apply("later", []core.Put{{Table: "t", Column: "c",
		PK: []byte("pk039"), Value: []byte("later")}}); err != nil {
		t.Fatal(err)
	}
	if v, _, err := cl.GetVerified("t", "c", []byte("pk039")); err != nil || string(v) != "later" {
		t.Fatalf("read after the commit: %q, %v", v, err)
	}
	expect("a read after a commit", 1, 1, 0, 0)

	// A replica frozen behind its primary, which then commits past the
	// digest the client pinned at connect time.
	db, err := spitz.OpenDir(t.TempDir(), spitz.Options{Sync: spitz.SyncNever, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	commit := func() {
		t.Helper()
		if _, err := db.Apply("w", []spitz.Put{{Table: "t", Column: "c", PK: []byte("pk"), Value: []byte("v")}}); err != nil {
			t.Fatal(err)
		}
	}
	commit()
	ln, _ := wire.Listen()
	go db.Serve(ln)
	defer ln.Close()
	rep, rln := serveReplicaOf(t, dialer(ln), db.Height())
	rep.Close() // stops following; keeps serving
	commit()
	rcl := connect(t, dialer(ln), dialer(rln))
	commit()
	if _, found, err := rcl.GetVerified("t", "c", []byte("pk")); err != nil || !found {
		t.Fatalf("replica-served read: %v, %v", found, err)
	}
	expect("a replica-served read at an older digest", 1, 1, 1, 1)
	if d := rcl.Verifier().Digest(); d != db.Digest() {
		t.Fatalf("trust at %d after the leg, the primary is at %d", d.Height, db.Height())
	}
}

// TestAuditedAnswerIsWhatItsReceiptsCommit: in AuditMode the cells a
// range scan or SELECT returns are the server's, taken on credit, so each
// must be one a receipt commits to. A row of another table, or a second
// answer for one cell, would otherwise reach the caller and pass every
// audit.
func TestAuditedAnswerIsWhatItsReceiptsCommit(t *testing.T) {
	forgeries := []struct {
		name string
		mut  func(cells []spitz.Cell) []spitz.Cell
	}{
		{"smuggle a row of another table", func(cells []spitz.Cell) []spitz.Cell {
			return append(cells, spitz.Cell{Table: "x", Column: "c", PK: []byte("pk012"), Value: []byte("smuggled")})
		}},
		{"answer one cell twice", func(cells []spitz.Cell) []spitz.Cell {
			twice := cells[2]
			twice.Value = []byte("twice")
			return append(cells, twice)
		}},
	}
	for _, sh := range readShapes[1:] { // the shapes whose answers are cells
		for _, fg := range forgeries {
			t.Run(sh.name+"/"+fg.name, func(t *testing.T) {
				fs := startFaultServer(t)
				cl := fs.client(t)
				defer cl.Close()
				aud, err := cl.StartAudit(spitz.AuditMode{MaxPending: 1 << 20, MaxDelay: time.Hour})
				if err != nil {
					t.Fatal(err)
				}
				var forged atomic.Int32
				fs.setMutate(func(req wire.Request, resp *wire.Response) {
					if req.Op == sh.attested && len(resp.Cells) > 2 {
						forged.Add(1)
						resp.Cells = fg.mut(resp.Cells)
					}
				})
				got, err := sh.read(cl)
				if err == nil {
					err = aud.Flush()
				}
				if forged.Load() == 0 {
					t.Fatal("the forgery never reached the client")
				}
				if !errors.Is(err, spitz.ErrTampered) {
					t.Fatalf("answered %q, %v; want ErrTampered", got, err)
				}
			})
		}
	}
}

// TestReadYourWritesAtTheTrustedHeight: a read whose answer has not
// changed since the client's trusted digest is answered at that digest, so
// the rule that decides "not changed" is all that stands between a client
// and a stale answer to its own write. Two clients write and read the same
// hot keys, point and range, while a third writer commits those keys and
// cold ones beside them; every read must verify, and no answer may be
// older than the reading client's own acknowledged write to that key.
func TestReadYourWritesAtTheTrustedHeight(t *testing.T) {
	db := spitz.Open(spitz.Options{})
	defer db.Close()
	hot := func(i int) []byte { return []byte(fmt.Sprintf("hot%02d", i)) }
	const hotKeys, cold = 8, 64
	var seed []spitz.Put
	for i := 0; i < hotKeys; i++ {
		seed = append(seed, spitz.Put{Table: "t", Column: "c", PK: hot(i), Value: []byte("seed")})
	}
	for i := 0; i < cold; i++ {
		seed = append(seed, spitz.Put{Table: "t", Column: "c", PK: []byte(fmt.Sprintf("cold%02d", i)), Value: []byte("seed")})
	}
	h, err := db.Apply("seed", seed)
	if err != nil {
		t.Fatal(err)
	}
	ln, _ := wire.Listen()
	go db.Serve(ln)
	defer ln.Close()

	// committed maps each value written to the height of the block that
	// acknowledged it, once its writer has the acknowledgement.
	var committed sync.Map
	committed.Store("seed", h.Height)
	write := func(cl *spitz.Client, pk []byte, value string) (uint64, error) {
		h, err := cl.Apply("w", []spitz.Put{{Table: "t", Column: "c", PK: pk, Value: []byte(value)}})
		if err == nil {
			committed.Store(value, h.Height)
		}
		return h.Height, err
	}
	// heightOf waits out the writer of a value a read returned between
	// its commit and its acknowledgement.
	heightOf := func(value []byte) (uint64, bool) {
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if h, ok := committed.Load(string(value)); ok {
				return h.(uint64), true
			}
		}
		return 0, false
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	writer := connect(t, dialer(ln))
	go func() { // the third writer: hot keys and cold ones
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			pk := []byte(fmt.Sprintf("cold%02d", i%cold))
			if i%3 == 0 {
				pk = hot(i % hotKeys)
			}
			if _, err := write(writer, pk, fmt.Sprint("churn-", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	errs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		cl := connect(t, dialer(ln))
		go func() {
			errs <- func() error {
				var mine [hotKeys]uint64 // the height of this client's last acknowledged write to each key
				check := func(i int, value []byte) error {
					at, ok := heightOf(value)
					if !ok {
						return fmt.Errorf("hot%02d: %q was never acknowledged", i, value)
					}
					if at < mine[i] {
						return fmt.Errorf("hot%02d: %q is from block %d, older than this client's write in block %d", i, value, at, mine[i])
					}
					return nil
				}
				for n := 0; n < 150; n++ {
					i := (n*5 + c) % hotKeys
					if n%3 == c {
						at, err := write(cl, hot(i), fmt.Sprintf("client%d-%d", c, n))
						if err != nil {
							return err
						}
						mine[i] = at
					}
					v, found, err := cl.GetVerified("t", "c", hot(i))
					if err != nil || !found {
						return fmt.Errorf("hot%02d: %v %v", i, found, err)
					}
					if err := check(i, v); err != nil {
						return err
					}
					if _, _, err := cl.GetVerified("t", "c", []byte(fmt.Sprintf("cold%02d", n%cold))); err != nil {
						return err
					}
					if n%4 != 0 {
						continue
					}
					cells, err := cl.RangePKVerified("t", "c", hot(0), hot(hotKeys))
					if err != nil || len(cells) != hotKeys {
						return fmt.Errorf("hot range: %d rows, %v", len(cells), err)
					}
					for j, cell := range cells {
						if err := check(j, cell.Value); err != nil {
							return err
						}
					}
				}
				return nil
			}()
		}()
	}
	for c := 0; c < 2; c++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	churn.Wait()
}
