package spitz_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"spitz"
	"spitz/internal/core"
	"spitz/internal/ledger"
	"spitz/internal/posleaf"
	"spitz/internal/proof"
	"spitz/internal/query"
	"spitz/internal/wire"
)

// Fault-injection suite for the verified-read path (eager and deferred):
// a wire transport that can delay, drop and bit-flip responses, plus a
// structured mutator that corrupts individual proof bytes. The invariant
// under test is zero silent acceptance: every injected tamper across
// point, range and batch proofs is reported — proof corruption as
// ErrTampered, transport corruption as an error of some kind — and a
// client never returns wrong data as verified.

// faultServer is an engine served through a response mutator and a
// faulty listener.
type faultServer struct {
	eng   *core.Engine
	inner net.Listener // dial target; accepts route through ln's fault wrapping
	ln    *wire.FaultListener
	srv   *wire.Server

	mu     sync.Mutex
	mutate func(req wire.Request, resp *wire.Response)
}

func startFaultServer(t testing.TB) *faultServer {
	t.Helper()
	eng := core.New(core.Options{})
	for i := 0; i < 40; i++ {
		if _, err := eng.Apply("seed", []core.Put{{Table: "t", Column: "c",
			PK: []byte(fmt.Sprintf("pk%03d", i)), Value: []byte(fmt.Sprintf("value-%03d", i))}}); err != nil {
			t.Fatal(err)
		}
	}
	return serveFaultEngine(t, eng)
}

// serveFaultEngine serves an already-seeded engine through the mutator
// and the faulty listener.
func serveFaultEngine(t testing.TB, eng *core.Engine) *faultServer {
	t.Helper()
	fs := &faultServer{eng: eng}
	fs.inner, _ = wire.Listen()
	fs.ln = wire.NewFaultListener(fs.inner)
	fs.srv = wire.NewHandlerServer(wire.MutateHandler(wire.EngineHandler(fs.eng),
		func(req wire.Request, resp *wire.Response) {
			fs.mu.Lock()
			m := fs.mutate
			fs.mu.Unlock()
			if m != nil {
				m(req, resp)
			}
		}))
	go fs.srv.Serve(fs.ln)
	t.Cleanup(func() { fs.srv.Close() })
	return fs
}

func (fs *faultServer) setMutate(m func(req wire.Request, resp *wire.Response)) {
	fs.mu.Lock()
	fs.mutate = m
	fs.mu.Unlock()
}

// client dials the inner listener (the server accepts through the fault
// wrapper, so the server-side conn carries the faults).
func (fs *faultServer) client(t testing.TB) *spitz.Client {
	t.Helper()
	wc, err := wire.Connect(fs.inner)
	if err != nil {
		t.Fatal(err)
	}
	return spitz.NewClient(wc)
}

// auditReads issues the canonical receipt mix — point hits, a point
// miss, and a range — on an AuditMode client and returns the auditor.
func auditReads(t *testing.T, cl *spitz.Client) *spitz.Auditor {
	t.Helper()
	aud, err := cl.StartAudit(spitz.AuditMode{MaxPending: 1 << 20, MaxDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if v, found, err := cl.GetVerified("t", "c", []byte("pk001")); err != nil || !found || string(v) != "value-001" {
		t.Fatalf("point read: %q %v %v", v, found, err)
	}
	if _, found, err := cl.GetVerified("t", "c", []byte("pk007")); err != nil || !found {
		t.Fatalf("point read 2: %v %v", found, err)
	}
	if _, found, err := cl.GetVerified("t", "c", []byte("absent")); err != nil || found {
		t.Fatalf("miss read: %v %v", found, err)
	}
	if cells, err := cl.RangePKVerified("t", "c", []byte("pk010"), []byte("pk015")); err != nil || len(cells) != 5 {
		t.Fatalf("range read: %d %v", len(cells), err)
	}
	return aud
}

// cutLeafRows returns a range proof's nodes with the last leaf reduced
// to its count, position and siblings, no entry between them: the rows it
// held silently gone, every byte that remains authentic. (Rows cannot be
// dropped from the response any other way: they travel only inside the
// leaves.)
func cutLeafRows(t testing.TB, nodes [][]byte) [][]byte {
	t.Helper()
	out := append([][]byte(nil), nodes...)
	for i := len(out) - 1; i >= 0; i-- {
		if len(out[i]) == 0 || out[i][0] != 0 {
			continue
		}
		leaf, err := posleaf.ParsePruned(out[i])
		if err != nil || len(leaf.Entries) == 0 {
			t.Errorf("leaf %d has no rows to cut: %v", i, err)
		}
		at := bytes.Index(out[i], leaf.Entries)
		out[i] = append(append([]byte(nil), out[i][:at]...), out[i][at+len(leaf.Entries):]...)
		return out
	}
	t.Error("range proof ships no leaf")
	return out
}

// detachResponse deep-copies a response through the wire codec before
// the mutator flips bytes in it: served proof nodes alias the server's
// content-addressed store, so in-place flips would corrupt the server
// itself instead of simulating corruption on the wire.
func detachResponse(t testing.TB, resp *wire.Response) {
	t.Helper()
	out, err := wire.DecodeResponse(wire.AppendResponse(nil, resp))
	if err != nil {
		t.Fatalf("detach: %v", err)
	}
	*resp = out
}

// withQuestion puts the question req asked back into resp's proofs: the
// point keys and range bounds a server leaves out, because its client
// walks the queries it asked itself. A lying server may ship them anyway;
// the forgeries of the question start from here. The proofs are the
// server's own copies (fit), so nothing it holds is edited.
func withQuestion(req wire.Request, resp *wire.Response) {
	qs := []ledger.BatchQuery{{Table: req.Table, Column: req.Column, PK: req.PK, PKHi: req.PKHi, Range: req.Op == wire.OpRangeVer}}
	switch req.Op {
	case wire.OpProveBatch:
		qs = req.Audits
	case wire.OpQuery:
		st, err := query.Parse(req.Statement)
		sel, ok := st.(query.Select)
		if err != nil || !ok {
			return
		}
		pl, err := query.PlanOf(sel)
		if err != nil {
			return
		}
		qs = pl.Queries(resp.Cells)
	}
	if p := resp.Proof; p != nil {
		var keys [][]byte
		ranges := p.Ranges
		for _, q := range qs {
			if !q.Range {
				keys = append(keys, proof.CellPrefix(q.Table, q.Column, q.PK))
			} else if len(ranges) > 0 {
				ranges[0].Start, ranges[0].End = proof.RefRange(q.Table, q.Column, q.PK, q.PKHi)
				ranges = ranges[1:]
			}
		}
		if p.Point != nil {
			p.Point.Keys = keys
		}
	}
}

// batchProofByteSlices enumerates every mutable byte slice of an
// OpProveBatch response, in a stable order, so the tamper sweep can
// address "byte k of the batch proof" uniformly: first what always
// travels, then the question the proof answers (its point keys and range
// bounds), which a server may ship beside them (withQuestion).
func batchProofByteSlices(resp *wire.Response) (out [][]byte) {
	bp := resp.Proof
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
	if resp.Consistency2 != nil {
		for i := range resp.Consistency2.Path {
			out = append(out, resp.Consistency2.Path[i][:])
		}
	}
	return append(out, questionSlices(bp)...)
}

// questionSlices is the question a proof answers as withQuestion ships
// it: its point keys and range bounds.
func questionSlices(p *ledger.Proof) [][]byte {
	var out [][]byte
	if p.Point != nil {
		out = append(out, p.Point.Keys...)
	}
	for i := range p.Ranges {
		out = append(out, p.Ranges[i].Start, p.Ranges[i].End)
	}
	return out
}

// flipAt flips byte k of slices, counted across them in order.
func flipAt(slices [][]byte, k int) {
	for _, s := range slices {
		if k < len(s) {
			s[k] ^= 0x01
			return
		}
		k -= len(s)
	}
}

// TestFaultEveryBatchProofByteTrips is the core zero-silent-acceptance
// sweep: every byte of the batch proof (node bodies, which hold the
// values, inclusion and prefix-proof hashes, the digest root, and the
// keys and range bounds a server may ship beside them) is flipped in
// turn, and every single flip must surface as ErrTampered at the flush —
// never a pass.
func TestFaultEveryBatchProofByteTrips(t *testing.T) {
	fs := startFaultServer(t)

	// First pass: count the proof bytes with an honest flush, which ships
	// the question too.
	var total int
	fs.setMutate(func(req wire.Request, resp *wire.Response) {
		if req.Op == wire.OpProveBatch {
			withQuestion(req, resp)
			for _, s := range batchProofByteSlices(resp) {
				total += len(s)
			}
		}
	})
	cl := fs.client(t)
	aud := auditReads(t, cl)
	if err := aud.Flush(); err != nil {
		t.Fatalf("honest flush failed: %v", err)
	}
	cl.Close()
	if total == 0 {
		t.Fatal("no proof bytes enumerated")
	}
	t.Logf("sweeping %d batch-proof bytes", total)

	step := 1
	if testing.Short() {
		step = 17
	}
	for off := 0; off < total; off += step {
		off := off
		fs.setMutate(func(req wire.Request, resp *wire.Response) {
			if req.Op != wire.OpProveBatch {
				return
			}
			withQuestion(req, resp)
			detachResponse(t, resp)
			flipAt(batchProofByteSlices(resp), off)
		})
		cl := fs.client(t)
		aud := auditReads(t, cl)
		err := aud.Flush()
		if err == nil {
			t.Fatalf("byte %d: tampered batch proof passed silently", off)
		}
		if !errors.Is(err, spitz.ErrTampered) {
			t.Fatalf("byte %d: tamper misreported as %v", off, err)
		}
		// Poisoning: once tampering is detected, further optimistic reads
		// refuse rather than keep accepting.
		if _, _, rerr := cl.GetVerified("t", "c", []byte("pk001")); !errors.Is(rerr, spitz.ErrTampered) {
			t.Fatalf("byte %d: poisoned client kept reading: %v", off, rerr)
		}
		cl.Close()
	}
	fs.setMutate(nil)
}

// TestFaultStructuredBatchForgeries covers the non-byte-flip forgeries a
// lying server could attempt on a batch: a toggled found flag, a dropped
// leaf, swapped answers, dropped proofs, a proof for a
// different (honest, older) digest, and omitted consistency proofs — all
// ErrTampered, table-driven. Found flags and values do not travel, so a
// forged answer is a walk that reaches something else. A forgery of the
// question the proof answers ships that question (withQuestion), forged.
func TestFaultStructuredBatchForgeries(t *testing.T) {
	fs := startFaultServer(t)
	// asked: the forgeries of the question itself.
	asked := map[string]bool{"swap two point answers": true, "narrow the proven range": true}
	cases := []struct {
		name string
		mut  func(resp *wire.Response)
	}{
		// Found flags do not travel: the walk decides them, so a hit is
		// toggled to a miss only by a leaf whose run does not hold it.
		{"toggle first found flag", func(r *wire.Response) {
			r.Proof.Point.Nodes = cutLeafRows(t, r.Proof.Point.Nodes)
		}},
		{"drop a point leaf", func(r *wire.Response) {
			nodes := r.Proof.Point.Nodes
			r.Proof.Point.Nodes = nodes[:len(nodes)-1]
		}},
		// Values do not travel, so answers cannot be swapped under their
		// keys; what a server can swap is which query each answer is for.
		{"swap two point answers", func(r *wire.Response) {
			p := r.Proof.Point
			p.Keys[0], p.Keys[1] = p.Keys[1], p.Keys[0]
		}},
		{"drop the range proof", func(r *wire.Response) { r.Proof.Ranges = nil }},
		{"narrow the proven range", func(r *wire.Response) {
			rp := &r.Proof.Ranges[0]
			rp.End = append([]byte(nil), rp.Start...)
			rp.Entries = nil
			rp.Nodes = rp.Nodes[:1]
		}},
		{"carry a second range part", func(r *wire.Response) {
			r.Proof.Ranges = append(r.Proof.Ranges, r.Proof.Ranges[0])
		}},
		{"cut the rows out of the range's leaf", func(r *wire.Response) {
			rp := &r.Proof.Ranges[0]
			rp.Nodes = cutLeafRows(t, rp.Nodes)
		}},
		{"omit the prefix proof", func(r *wire.Response) { r.Consistency2 = nil }},
		{"omit the batch proof", func(r *wire.Response) { r.Proof = nil }},
		{"stale block binding", func(r *wire.Response) { r.Proof.Header.Height++ }},
		{"inflate inclusion tree", func(r *wire.Response) { r.Proof.Inclusion.TreeSize++ }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs.setMutate(func(req wire.Request, resp *wire.Response) {
				if req.Op != wire.OpProveBatch {
					return
				}
				if asked[tc.name] {
					withQuestion(req, resp)
				}
				tc.mut(resp)
			})
			defer fs.setMutate(nil)
			cl := fs.client(t)
			defer cl.Close()
			aud := auditReads(t, cl)
			before := stateOf(cl.Verifier())
			err := aud.Flush()
			if err == nil {
				t.Fatalf("%s: passed silently", tc.name)
			}
			if !errors.Is(err, spitz.ErrTampered) {
				t.Fatalf("%s: misreported as %v", tc.name, err)
			}
			if after := stateOf(cl.Verifier()); after != before {
				t.Fatalf("%s: the rejected flush moved the verifier: %+v -> %+v", tc.name, before, after)
			}
		})
	}
}

// TestFaultEagerProofBytesTrip sweeps byte flips over the eager path's
// point and range proofs too (table-driven over the op kinds), so both
// verification modes share the zero-silent-acceptance guarantee.
func TestFaultEagerProofBytesTrip(t *testing.T) {
	fs := startFaultServer(t)
	kinds := []struct {
		name   string
		op     wire.Op
		read   func(cl *spitz.Client) error
		slices func(resp *wire.Response) [][]byte
	}{
		{
			name: "point",
			op:   wire.OpGetVerified,
			read: func(cl *spitz.Client) error {
				_, _, err := cl.GetVerified("t", "c", []byte("pk003"))
				return err
			},
			slices: func(resp *wire.Response) [][]byte {
				var out [][]byte
				out = append(out, resp.Proof.Point.Nodes...)
				for i := range resp.Proof.Inclusion.Path {
					out = append(out, resp.Proof.Inclusion.Path[i][:])
				}
				out = append(out, resp.Digest.Root[:])
				return out
			},
		},
		{
			name: "range",
			op:   wire.OpRangeVer,
			read: func(cl *spitz.Client) error {
				_, err := cl.RangePKVerified("t", "c", []byte("pk020"), []byte("pk025"))
				return err
			},
			slices: func(resp *wire.Response) [][]byte {
				var out [][]byte
				out = append(out, resp.Proof.Ranges[0].Nodes...)
				for i := range resp.Proof.Inclusion.Path {
					out = append(out, resp.Proof.Inclusion.Path[i][:])
				}
				return out
			},
		},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			// The question the proof answers, which a server may ship
			// (withQuestion), follows what always travels.
			slices := func(resp *wire.Response) [][]byte {
				return append(kind.slices(resp), questionSlices(resp.Proof)...)
			}
			var total int
			fs.setMutate(func(req wire.Request, resp *wire.Response) {
				if req.Op == kind.op && resp.Proof != nil {
					withQuestion(req, resp)
					total = 0
					for _, s := range slices(resp) {
						total += len(s)
					}
				}
			})
			cl := fs.client(t)
			if err := kind.read(cl); err != nil {
				t.Fatalf("honest read failed: %v", err)
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
					if req.Op != kind.op || resp.Proof == nil {
						return
					}
					withQuestion(req, resp)
					detachResponse(t, resp)
					flipAt(slices(resp), off)
				})
				cl := fs.client(t)
				err := kind.read(cl)
				if err == nil {
					t.Fatalf("%s byte %d: tampered proof passed silently", kind.name, off)
				}
				if !errors.Is(err, spitz.ErrTampered) {
					t.Fatalf("%s byte %d: misreported as %v", kind.name, off, err)
				}
				cl.Close()
			}
			fs.setMutate(nil)
		})
	}
}

// TestFaultTransportDelayDropFlip exercises the connection-level faults:
// delays must not affect correctness, drops must surface as transport
// errors (and unverified receipts must fail Close), and raw-stream bit
// flips must never let wrong data through as verified.
func TestFaultTransportDelayDropFlip(t *testing.T) {
	fs := startFaultServer(t)

	t.Run("delay is harmless", func(t *testing.T) {
		fs.ln.SetFaults(wire.Faults{Delay: 2 * time.Millisecond})
		defer fs.ln.SetFaults(wire.Faults{})
		cl := fs.client(t)
		defer cl.Close()
		aud := auditReads(t, cl)
		if err := aud.Flush(); err != nil {
			t.Fatalf("delayed flush failed: %v", err)
		}
	})

	t.Run("drop mid-response is loud", func(t *testing.T) {
		fs.ln.SetFaults(wire.Faults{CloseAfter: 40})
		defer fs.ln.SetFaults(wire.Faults{})
		wc, err := wire.Connect(fs.inner)
		if err != nil {
			t.Fatal(err)
		}
		cl := spitz.NewClient(wc)
		defer cl.Close()
		if _, _, err := cl.GetVerified("t", "c", []byte("pk001")); err == nil {
			t.Fatal("read over a dropped connection passed silently")
		} else if !errors.Is(err, wire.ErrTransport) {
			t.Fatalf("drop misreported as %v", err)
		}
	})

	t.Run("raw stream flips never yield wrong verified data", func(t *testing.T) {
		// Measure one response stream, then flip each offset (sampled) on
		// fresh connections. Any outcome is acceptable except returning a
		// wrong value without error.
		probe := func(off int64) (value string, found bool, err error) {
			fs.ln.SetFaults(wire.Faults{FlipEnabled: off >= 0, FlipOffset: off})
			defer fs.ln.SetFaults(wire.Faults{})
			wc, cerr := wire.Connect(fs.inner)
			if cerr != nil {
				return "", false, cerr
			}
			cl := spitz.NewClient(wc)
			defer cl.Close()
			v, ok, rerr := cl.GetVerified("t", "c", []byte("pk005"))
			return string(v), ok, rerr
		}
		wantValue, wantFound, err := probe(-1)
		if err != nil || !wantFound || wantValue != "value-005" {
			t.Fatalf("honest probe: %q %v %v", wantValue, wantFound, err)
		}
		// The response stream is a few hundred bytes; sweep a prefix that
		// covers the hello reply, the frame header and the whole first
		// response.
		for off := int64(0); off < 700; off += 3 {
			v, ok, err := probe(off)
			if err == nil && ok && v != wantValue {
				t.Fatalf("offset %d: wrong value %q returned as verified", off, v)
			}
			if err == nil && !ok {
				t.Fatalf("offset %d: presence silently flipped to absence", off)
			}
		}
	})
}

var _ net.Listener = (*wire.FaultListener)(nil)

// TestFaultLieNowCommitLater reproduces the strongest deferred-mode
// attack: the server forges a value at read time (digest honest), then
// actually commits the forged value in a later block and answers the
// audit with a proof anchored at that later block — self-consistent
// inclusion, honest prefix proof, values matching the receipts. The
// audit must reject it: receipts were read at digest d, so the proof
// must be for block d.Height-1, not for a block the server wrote after
// the fact.
func TestFaultLieNowCommitLater(t *testing.T) {
	fs := startFaultServer(t)
	target := benchKey996()

	// Phase 1: forge the value of one read, digest untouched.
	fs.setMutate(func(req wire.Request, resp *wire.Response) {
		if req.Op == wire.OpGet && string(req.PK) == string(target) {
			resp.Value = []byte("forged")
		}
	})
	cl := fs.client(t)
	defer cl.Close()
	aud, err := cl.StartAudit(spitz.AuditMode{MaxPending: 1 << 20, MaxDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	v, found, err := cl.GetVerified("t", "c", target)
	if err != nil || !found || string(v) != "forged" {
		t.Fatalf("forged read did not reach the client: %q %v %v", v, found, err)
	}

	// Phase 2: the server commits the forged value for real.
	if _, err := fs.eng.Apply("cover-up", []core.Put{{Table: "t", Column: "c",
		PK: target, Value: []byte("forged")}}); err != nil {
		t.Fatal(err)
	}

	// Phase 3: answer the audit with a proof at the NEW head block, with
	// an honest prefix proof for the receipts' digest.
	fs.setMutate(func(req wire.Request, resp *wire.Response) {
		if req.Op != wire.OpProveBatch || req.OldDigest2 == nil {
			return
		}
		cur := fs.eng.Digest()
		cons2, err := fs.eng.ConsistencyProof(req.OldDigest2.Height, cur.Height)
		if err != nil {
			t.Errorf("malicious cons2: %v", err)
			return
		}
		res, err := fs.eng.ProveBatch(req.OldDigest, cur, req.Audits)
		if err != nil {
			t.Errorf("malicious prove: %v", err)
			return
		}
		*resp = wire.Response{Digest: res.Digest, Consistency: &res.ConsTrusted,
			Consistency2: &cons2, Proof: &res.Proof}
	})
	err = aud.Flush()
	if err == nil {
		t.Fatal("lie-now-commit-later audit passed silently")
	}
	if !errors.Is(err, spitz.ErrTampered) {
		t.Fatalf("misreported as %v", err)
	}
}

// benchKey996 names the target key of the lie-now-commit-later probe.
func benchKey996() []byte { return []byte("pk030") }

// TestFaultReadAfterAuditorClose: an optimistic read that completes
// after the auditor closed cannot leave a receipt nothing will verify —
// it must fail instead of returning unaudited data.
func TestFaultReadAfterAuditorClose(t *testing.T) {
	fs := startFaultServer(t)
	cl := fs.client(t)
	aud, err := cl.StartAudit(spitz.AuditMode{MaxPending: 1 << 20, MaxDelay: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, found, err := cl.GetVerified("t", "c", []byte("pk001")); err != nil || !found {
		t.Fatalf("pre-close read: %v %v", found, err)
	}
	if err := aud.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, _, err := cl.GetVerified("t", "c", []byte("pk001")); err == nil {
		t.Fatal("read after auditor close returned unaudited data silently")
	}
	if _, err := cl.RangePKVerified("t", "c", []byte("pk010"), []byte("pk015")); err == nil {
		t.Fatal("range after auditor close returned unaudited data silently")
	}
	// Errors channel is closed (a ranging consumer terminates).
	if _, ok := <-aud.Errors(); ok {
		t.Fatal("Errors channel delivered after clean close")
	}
}
