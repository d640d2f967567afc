package spitz_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spitz"
	"spitz/internal/core"
	"spitz/internal/hashutil"
	"spitz/internal/postree"
	"spitz/internal/wire"
)

// The trimmed form of the verified-read messages, the only form on the
// wire: a hint names each held index node by its digest's first
// postree.FingerprintSize bytes, and no proof carries the question its
// client asked or, unbound, the digest it trusts. Both hellos must carry
// its flag.

// collidingHint returns, for every index node a complete response's proofs
// ship, a digest that is not the node's but shares its fingerprint: a hint
// naming those makes a server that elides by fingerprint leave out nodes
// the client does not hold.
func collidingHint(resp wire.Response) []hashutil.Digest {
	var bodies [][]byte
	switch {
	case resp.Proof != nil && resp.Proof.Point != nil:
		bodies = resp.Proof.Point.Nodes
	case resp.Proof != nil && len(resp.Proof.Ranges) > 0:
		bodies = resp.Proof.Ranges[0].Nodes
	case resp.BatchProof != nil:
		if resp.BatchProof.Point != nil {
			bodies = resp.BatchProof.Point.Nodes
		}
		for _, r := range resp.BatchProof.Ranges {
			bodies = append(bodies, r.Nodes...)
		}
	}
	var out []hashutil.Digest
	for _, body := range bodies {
		if body[0] != 0 { // an index node; leaves are never left out
			d := hashutil.Sum(hashutil.DomainPOSIndex, body)
			d[hashutil.DigestSize-1] ^= 1
			out = append(out, d)
		}
	}
	return out
}

// narrower asks less than req does: a range that stops a row short, or for
// a point read another key.
func narrower(sh readShape, req wire.Request) wire.Request {
	switch sh.eager {
	case wire.OpRangeVer:
		req.PKHi = []byte("pk014")
	case wire.OpQuery:
		req.Statement = "SELECT c FROM t WHERE pk BETWEEN 'pk010' AND 'pk013'"
	default:
		return sh.other(req)
	}
	return req
}

// untrimmedHello is the hello of a peer of this framing version without
// the trimmed form: framing v4, no flags.
var untrimmedHello = []byte{0x00, 'S', 'P', 'Z', 4, 0}

// TestTrimmedInterop: a peer without the trimmed form is refused at the
// hello, on either side, by name: a client whose hello lacks the flag is
// told what the server speaks and hung up on, and a client meeting a
// server whose reply lacks it fails with an error naming the form.
// Between two trimmed peers every read shape, cold, warm and audited, gets
// the honest answer, and the hint names each held node by fingerprint.
// (wire's TestHelloVersionChecked has every flags byte.)
func TestTrimmedInterop(t *testing.T) {
	t.Run("both trimmed", func(t *testing.T) {
		honest := make([]string, len(readShapes))
		ref := startFaultServer(t)
		for i, sh := range readShapes {
			cl := ref.client(t)
			var err error
			if honest[i], err = sh.read(cl); err != nil || honest[i] == "" {
				t.Fatalf("%s: reference read %q, %v", sh.name, honest[i], err)
			}
			cl.Close()
		}
		fs := startFaultServer(t)
		// Rows past the shapes' keys, so the tree has index nodes to hint.
		var more []core.Put
		for i := 1000; i < 3000; i++ {
			more = append(more, core.Put{Table: "t", Column: "c", PK: []byte(fmt.Sprintf("pk%d", i)), Value: []byte("x")})
		}
		if _, err := fs.eng.Apply("more", more); err != nil {
			t.Fatal(err)
		}
		var hints, wholeDigests int
		fs.setMutate(func(req wire.Request, resp *wire.Response) {
			for _, d := range req.Have {
				hints++
				if !bytes.Equal(d[postree.FingerprintSize:], make([]byte, hashutil.DigestSize-postree.FingerprintSize)) {
					wholeDigests++
				}
			}
		})
		cl := fs.client(t)
		defer cl.Close()
		if err := cl.SyncDigest(); err != nil {
			t.Fatal(err)
		}
		for i, sh := range readShapes {
			for _, pass := range []string{"cold", "warm"} {
				if got, err := sh.read(cl); err != nil || got != honest[i] {
					t.Fatalf("%s, %s: %q, %v; want %q", sh.name, pass, got, err, honest[i])
				}
			}
		}
		aud, err := cl.StartAudit(spitz.AuditMode{MaxPending: 1 << 20, MaxDelay: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		for i, sh := range readShapes {
			if got, err := sh.read(cl); err != nil || got != honest[i] {
				t.Fatalf("%s, audited: %q, %v; want %q", sh.name, got, err, honest[i])
			}
		}
		if err := aud.Flush(); err != nil {
			t.Fatalf("audit flush: %v", err)
		}
		if st := aud.Stats(); st.Audited != st.Receipts || st.Receipts == 0 {
			t.Fatalf("audited %d of %d receipts", st.Audited, st.Receipts)
		}
		if hints == 0 || wholeDigests != 0 {
			t.Fatalf("%d of %d hinted nodes named by whole digest, want none of some", wholeDigests, hints)
		}
	})
	t.Run("untrimmed client", func(t *testing.T) {
		fs := startFaultServer(t)
		var served atomic.Int64
		fs.setMutate(func(wire.Request, *wire.Response) { served.Add(1) })
		var conn net.Conn
		var err error
		if pl, ok := fs.inner.(*wire.PipeListener); ok {
			conn, err = pl.DialPipe()
		} else {
			conn, err = net.Dial(fs.inner.Addr().Network(), fs.inner.Addr().String())
		}
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(untrimmedHello); err != nil {
			t.Fatal(err)
		}
		reply := make([]byte, len(untrimmedHello))
		if _, err := io.ReadFull(conn, reply); err != nil || reply[5]&2 == 0 {
			t.Fatalf("server reply % x (%v) does not name the trimmed form", reply, err)
		}
		if n, err := conn.Read(make([]byte, 1)); n != 0 || err != io.EOF || served.Load() != 0 {
			t.Fatalf("connection stayed open (read %d, %v; %d requests served)", n, err, served.Load())
		}
	})
	t.Run("untrimmed server", func(t *testing.T) {
		conn, srv := net.Pipe()
		go func() {
			io.ReadFull(srv, make([]byte, len(untrimmedHello)))
			srv.Write(untrimmedHello)
			srv.Close()
		}()
		cl := spitz.NewClient(wire.NewClient(conn))
		defer cl.Close()
		if err := cl.SyncDigest(); !errors.Is(err, wire.ErrTransport) || !strings.Contains(err.Error(), "trimmed") {
			t.Fatalf("a server without the trimmed form: %v, want ErrTransport naming the form", err)
		}
	})
}

// TestFingerprintCollisionIsAnError: a hint names a node by fingerprint
// alone, so a node the server holds can share a fingerprint with one the
// client named and be left out though the client lacks it. That costs the
// read an error, never wrong data: ErrTampered, and the verifier as it
// was — for a cold client, whose every index node is left out, and for a
// warm one after a commit, whose rewritten path is left out instead of
// patched.
func TestFingerprintCollisionIsAnError(t *testing.T) {
	es := startElisionServer(t)
	pk := elisionPK(12345)
	for _, kind := range []string{"cold", "warm after a commit"} {
		t.Run(kind, func(t *testing.T) {
			var cl *spitz.Client
			want := elisionValue(12345, 0)
			if kind == "cold" {
				cl = es.client(t)
				t.Cleanup(func() { cl.Close() })
				if err := cl.SyncDigest(); err != nil {
					t.Fatal(err)
				}
			} else {
				cl = warmClient(t, es, pk)
				// A commit of pk itself: the read is answered at the head.
				want = []byte("later")
				if _, err := es.eng.Apply("later", []core.Put{{Table: "t", Column: "c", PK: pk, Value: want}}); err != nil {
					t.Fatal(err)
				}
			}
			before := stateOf(cl.Verifier())
			es.setMutate(onVerifiedGet(func(req wire.Request, resp *wire.Response) {
				cold := req
				cold.Have = nil
				req.Have = append(req.Have, collidingHint(wire.Dispatch(es.eng, cold))...)
				*resp = wire.Dispatch(es.eng, req)
			}))
			_, _, err := cl.GetVerified("t", "c", pk)
			es.setMutate(nil)
			if !errors.Is(err, spitz.ErrTampered) {
				t.Fatalf("err = %v, want ErrTampered", err)
			}
			if after := stateOf(cl.Verifier()); after != before {
				t.Fatalf("the rejected response moved the verifier: %+v -> %+v", before, after)
			}
			if v, found, err := cl.GetVerified("t", "c", pk); err != nil || !found || !bytes.Equal(v, want) {
				t.Fatalf("honest read after the collision: %q %v %v", v, found, err)
			}
		})
	}
}
