package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"spitz/internal/proof"
	"testing"
	"time"

	"spitz/internal/binenc"
	"spitz/internal/hashutil"
	"spitz/internal/postree"
)

// TestDecodeRequestFingerprintBounds: the trimmed hint is as bounded as
// the whole-digest one — a zero count, a count above proof.MaxHave and
// a count above the bytes present are refused before anything is
// allocated, and so is a request that carries both forms — and it
// round-trips as fingerprints: each digest's first bytes, the rest zero.
func TestDecodeRequestFingerprintBounds(t *testing.T) {
	d := hashutil.Sum(hashutil.DomainValue, []byte("held"))
	one := Request{Op: OpGetVerified, PK: []byte("k"), Have: []hashutil.Digest{d}, trimmed: true}
	enc := AppendRequest(nil, &one)
	whole := one
	whole.trimmed = false
	if got, want := len(AppendRequest(nil, &whole))-len(enc), hashutil.DigestSize-postree.FingerprintSize; got != want {
		t.Fatalf("a trimmed hint is %d bytes shorter per node, want %d", got, want)
	}
	dec, err := DecodeRequest(enc)
	var fp hashutil.Digest
	copy(fp[:postree.FingerprintSize], d[:])
	if err != nil || !dec.trimmed || len(dec.Have) != 1 || dec.Have[0] != fp {
		t.Fatalf("trimmed hint decoded as %x (trimmed %v), %v", dec.Have, dec.trimmed, err)
	}
	if again := AppendRequest(nil, &dec); !bytes.Equal(again, enc) {
		t.Fatal("a decoded trimmed hint does not encode back to its bytes")
	}
	at := len(enc) - postree.FingerprintSize - 1
	if enc[at] != 1 {
		t.Fatalf("count byte not where expected: %d", enc[at])
	}
	for _, count := range []uint64{0, 2, proof.MaxHave + 1, 1 << 40} {
		bad := binenc.AppendUvarint(append([]byte(nil), enc[:at]...), count)
		if _, err := DecodeRequest(append(bad, enc[at+1:]...)); !errors.Is(err, binenc.ErrCorrupt) {
			t.Fatalf("fingerprint count %d: err = %v", count, err)
		}
	}
	over := Request{Op: OpProveBatch, Have: make([]hashutil.Digest, proof.MaxHave+1), trimmed: true}
	if _, err := DecodeRequest(AppendRequest(nil, &over)); !errors.Is(err, binenc.ErrCorrupt) {
		t.Fatalf("hint of MaxHave+1 fingerprints: err = %v", err)
	}
	if _, err := DecodeRequest(enc[:len(enc)-1]); !errors.Is(err, binenc.ErrCorrupt) {
		t.Fatalf("truncated hint: err = %v", err)
	}
	// Both forms at once: the whole-digest bit set beside the trimmed one.
	both := AppendRequest(nil, &Request{Op: OpGetVerified, Have: []hashutil.Digest{d}, trimmed: true})
	bits, _, _ := binenc.ReadUvarint(both[1:])
	mixed := binenc.AppendUvarint([]byte{both[0]}, bits|reqHave)
	mixed = append(mixed, both[1+len(binenc.AppendUvarint(nil, bits)):]...)
	if _, err := DecodeRequest(mixed); !errors.Is(err, binenc.ErrCorrupt) {
		t.Fatalf("both hint forms: err = %v", err)
	}
}

// rawRoundTrip opens a connection to ln whose hello offers flags, sends
// req (its hint in the form the negotiation chose) and returns the
// response payload as it arrived.
func rawRoundTrip(t *testing.T, ln *PipeListener, flags byte, req Request) []byte {
	t.Helper()
	conn, err := ln.DialPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	hello := helloBytes(protoVersion, flags)
	var reply [6]byte
	br := bufio.NewReader(conn)
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(br, reply[:]); err != nil {
		t.Fatal(err)
	}
	req.trimmed = reply[5]&flagTrim != 0
	if err := (&frameWriter{w: conn}).writeFrame(1, AppendRequest(nil, &req)); err != nil {
		t.Fatal(err)
	}
	_, payload, err := readFrame(br, new(frameBuf))
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestUntrimmedPeerGetsTheUntrimmedBytes: a peer whose hello lacks
// flagTrim is answered byte for byte as before the trimmed form — its
// whole-digest hint honoured, every proof with its question, an unbound
// proof with its digest — and a peer that offers it gets the same proofs
// without those (TestElisionOverTheWire verifies them through Client.Do).
func TestUntrimmedPeerGetsTheUntrimmedBytes(t *testing.T) {
	eng, pk := elideEngine(t)
	srv := NewHandlerServer(EngineHandler(eng))
	ln := NewPipeListener()
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	cold := Dispatch(eng, Request{Op: OpGetVerified, Table: "t", Column: "c", PK: pk})
	held := heldNodes(t, cold)
	d := eng.Digest()
	reads := append([]multiRow{{name: "point", req: Request{Op: OpGetVerified, Table: "t", Column: "c", PK: pk}}}, multiRowReads(t, eng)...)
	for _, m := range reads {
		for _, warm := range []bool{false, true} {
			req := m.req
			if warm {
				req.Have = pin(held).Have()
				req.Height, req.HeadHeld = d.Height, m.req.Op != OpProveBatch
			}
			want := Dispatch(eng, req)
			old := rawRoundTrip(t, ln, flagCompress, req)
			if !bytes.Equal(old, AppendResponse(nil, &want)) {
				t.Fatalf("%s (warm %v): an untrimmed peer was not sent the untrimmed response", m.name, warm)
			}
			req.trimmed = true
			if got := rawRoundTrip(t, ln, flagTrim, req); !bytes.Equal(got, AppendResponse(nil, ptr(withoutQuestion(Dispatch(eng, req))))) || len(got) >= len(old) {
				t.Fatalf("%s (warm %v): the trimmed response is %d bytes, the untrimmed %d", m.name, warm, len(got), len(old))
			}
		}
	}
}

func ptr[T any](v T) *T { return &v }

// TestUntrimmedConnClearsOnlyTheFlag: the interop wrapper takes flagTrim
// out of the hello in either direction, however the hello is split, and
// leaves every other byte as it was.
func TestUntrimmedConnClearsOnlyTheFlag(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	hello := helloBytes(protoVersion, flagCompress|flagTrim)
	frame := []byte{0xAA, flagTrim, flagTrim}
	go func() {
		w := Untrimmed(a)
		w.Write(hello[:4])
		w.Write(append(hello[4:], frame...))
	}()
	r := Untrimmed(b)
	got := make([]byte, 0, 9)
	for buf := make([]byte, 2); len(got) < 9; {
		n, err := r.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	cleared := helloBytes(protoVersion, flagCompress)
	if want := append(cleared[:], frame...); !bytes.Equal(got, want) {
		t.Fatalf("read % x, want % x", got, want)
	}
}
