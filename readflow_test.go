package spitz_test

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spitz"
	"spitz/internal/core"
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
// at the read or at the audit flush — and against an honest empty server,
// whose empty answer must be accepted. The forged response is the read's
// own, or the proof round trip behind it: the consistency proof of an
// eager read, the batch proof of an audit flush.
func TestEveryReadShapeRejectsTheSameForgeries(t *testing.T) {
	forgeries := []struct {
		name string
		// The op whose responses are forged in each mode; zero: the read's.
		eagerOn, auditOn wire.Op
		commit           bool // land a block first, so the read needs a prefix proof
		mut              func(fs *faultServer, sh readShape, req wire.Request, resp *wire.Response)
	}{
		{"claim an empty ledger after trust", "", "", false,
			func(_ *faultServer, _ readShape, _ wire.Request, resp *wire.Response) { *resp = wire.Response{} }},
		{"omit the proof", "", wire.OpProveBatch, false,
			func(_ *faultServer, _ readShape, _ wire.Request, resp *wire.Response) {
				resp.Proof, resp.BatchProof, resp.Found, resp.Cells = nil, nil, false, nil
			}},
		{"omit the prefix proof", wire.OpConsistency, wire.OpProveBatch, true,
			func(_ *faultServer, _ readShape, _ wire.Request, resp *wire.Response) { resp.Consistency2 = nil }},
		{"answer another key or range", "", "", false,
			func(fs *faultServer, sh readShape, req wire.Request, resp *wire.Response) {
				*resp = wire.Dispatch(fs.eng, sh.other(req))
			}},
	}
	for _, sh := range readShapes {
		for _, audit := range []bool{false, true} {
			mode, op := "eager", sh.eager
			if audit {
				mode, op = "audit", sh.attested
			}
			// read runs the shape in the mode on a client whose trust is
			// pinned before the forger sets to work; an audited read is
			// flushed before it counts.
			read := func(t *testing.T, fs *faultServer, forge func()) (string, error) {
				cl := fs.client(t)
				t.Cleanup(func() { cl.Close() })
				if err := cl.SyncDigest(); err != nil {
					t.Fatalf("pin trust: %v", err)
				}
				forge()
				if !audit {
					return sh.read(cl)
				}
				aud, err := cl.StartAudit(spitz.AuditMode{MaxPending: 1 << 20, MaxDelay: time.Hour})
				if err != nil {
					t.Fatal(err)
				}
				got, err := sh.read(cl)
				if err == nil {
					err = aud.Flush()
				}
				return got, err
			}
			for _, fg := range forgeries {
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
					got, err := read(t, fs, func() {
						if fg.commit {
							if _, err := fs.eng.Apply("later", []core.Put{{Table: "t", Column: "c",
								PK: []byte("pk039"), Value: []byte("later")}}); err != nil {
								t.Fatal(err)
							}
						}
						fs.setMutate(func(req wire.Request, resp *wire.Response) {
							if req.Op == on && resp.Err == "" {
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
				})
			}
			t.Run(sh.name+"/"+mode+"/honest empty server", func(t *testing.T) {
				got, err := read(t, serveFaultEngine(t, core.New(core.Options{})), func() {})
				if err != nil || got != "" {
					t.Fatalf("empty server: %q, %v; want the empty answer", got, err)
				}
			})
		}
	}
}

// FuzzVerifiedRead delivers, in place of the honest response to each
// eager read shape, whatever the fuzzer makes of its encoding — decoded,
// it reaches a client whose trust is pinned to the honest digest. The
// client must return the honest answer or an error: never other data,
// never fewer rows.
func FuzzVerifiedRead(f *testing.F) {
	fs := startFaultServer(f)
	honest := make([]string, len(readShapes))
	for i, sh := range readShapes {
		var seed []byte
		fs.setMutate(func(req wire.Request, resp *wire.Response) {
			if req.Op == sh.eager {
				seed = wire.AppendResponse(nil, resp)
			}
		})
		cl := fs.client(f)
		var err error
		honest[i], err = sh.read(cl)
		cl.Close()
		if err != nil || honest[i] == "" || seed == nil {
			f.Fatalf("%s: honest read %q, %v", sh.name, honest[i], err)
		}
		f.Add(uint8(i), seed)
	}
	fs.setMutate(nil)
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		sh := readShapes[int(shape)%len(readShapes)]
		resp, err := wire.DecodeResponse(data)
		if err != nil {
			return
		}
		cl := fs.client(t)
		defer cl.Close()
		if err := cl.SyncDigest(); err != nil {
			t.Fatalf("pin trust: %v", err)
		}
		fs.setMutate(func(req wire.Request, r *wire.Response) {
			if req.Op == sh.eager {
				*r = resp
			}
		})
		defer fs.setMutate(nil)
		got, err := sh.read(cl)
		if want := honest[int(shape)%len(readShapes)]; err == nil && got != want {
			t.Fatalf("%s: answered %q, the honest answer is %q", sh.name, got, want)
		}
	})
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
