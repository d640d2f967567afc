package wire

// Handshake and transport-level tests for the v3 binary framing: the
// hello's version and message-form check on both sides, peers that never
// say hello, frames that set a flag, and request multiplexing over a
// shared connection.

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spitz/internal/obs"
)

// echoHandler answers OpGet with a value derived from the key, so a
// misrouted response is detectable, and serves OpStats so protocol
// reporting can be asserted.
func echoHandler() Handler {
	return HandlerFunc(func(req Request) Response {
		switch req.Op {
		case OpGet:
			return Response{Found: true, Value: append([]byte("v:"), req.PK...)}
		case OpStats:
			return Response{Stats: &Stats{Shards: []ShardStats{{Height: 7}}}}
		}
		return Response{Err: "echo: unsupported op " + string(req.Op)}
	})
}

func startEchoServer(t *testing.T) net.Listener {
	t.Helper()
	srv := NewHandlerServer(echoHandler())
	ln, _ := Listen()
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln
}

func checkEcho(t *testing.T, cl *Client, key string) {
	t.Helper()
	resp, err := cl.Do(Request{Op: OpGet, PK: []byte(key)})
	if err != nil {
		t.Fatalf("echo %q: %v", key, err)
	}
	if !resp.Found || string(resp.Value) != "v:"+key {
		t.Fatalf("echo %q: got found=%v value=%q", key, resp.Found, resp.Value)
	}
}

func TestNegotiateBinary(t *testing.T) {
	ln := startEchoServer(t)
	cl, err := Connect(ln)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if p := cl.Proto(); p != ProtoBinary {
		t.Fatalf("negotiated %q, want %q", p, ProtoBinary)
	}
	checkEcho(t, cl, "k1")
	resp, err := cl.Do(Request{Op: OpStats})
	if err != nil || resp.Stats == nil {
		t.Fatalf("stats: %v %+v", err, resp)
	}
	if resp.Stats.Protocol != ProtoBinary {
		t.Fatalf("server reported protocol %q, want %q", resp.Stats.Protocol, ProtoBinary)
	}
}

// waitCounter waits for an obs counter to move by delta from base: the
// server counts a dropped connection on its own goroutine.
func waitCounter(t *testing.T, c *obs.Counter, base, delta uint64, what string) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); c.Value()-base != delta; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: counter moved by %d, want %d", what, c.Value()-base, delta)
		}
	}
}

// rawPeer serves a request-counting handler on a pipe and returns a raw
// connection to it, with a deadline so that a server which keeps a peer
// it should drop fails the test instead of hanging it.
func rawPeer(t *testing.T) (conn net.Conn, served *int) {
	t.Helper()
	served = new(int)
	srv := NewHandlerServer(HandlerFunc(func(Request) Response { *served++; return Response{} }))
	pl := NewPipeListener()
	go srv.Serve(pl)
	t.Cleanup(func() { srv.Close() })
	conn, err := pl.DialPipe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	return conn, served
}

// helloStub is a listener that reads each peer's hello, writes reply (if
// any) and hangs up — a peer of another framing version, or one that
// never answers. accepted counts them, each before it is hung up on.
func helloStub(t *testing.T, ln net.Listener, reply []byte) (accepted *atomic.Int64) {
	t.Helper()
	accepted = new(atomic.Int64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var hello [6]byte
			io.ReadFull(conn, hello[:])
			if len(reply) > 0 {
				conn.Write(reply)
			}
			accepted.Add(1)
			conn.Close()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return accepted
}

// serverMeets sends the server hello and checks its reply: the framing it
// speaks, whatever the hello offered. A peer it accepts
// is served; one it refuses is hung up on without a frame read.
func serverMeets(t *testing.T, hello [6]byte, accepted bool) {
	t.Helper()
	conn, served := rawPeer(t)
	failed, frames := mNegotiateFailed.Value(), mFramesRead.Value()
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	var reply [6]byte
	want := helloBytes(protoVersion)
	if _, err := io.ReadFull(conn, reply[:]); err != nil || reply != want {
		t.Fatalf("server reply % x (%v), want % x", reply, err, want)
	}
	if accepted {
		if err := (&frameWriter{w: conn}).writeFrame(1, AppendRequest(nil, &Request{Op: OpGet})); err != nil {
			t.Fatal(err)
		}
		if _, _, err := readFrame(bufio.NewReader(conn), new(frameBuf)); err != nil || *served != 1 {
			t.Fatalf("hello % x was not served: %v (%d requests)", hello, err, *served)
		}
		return
	}
	if n, err := conn.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("connection after hello % x stayed open (read %d, %v)", hello, n, err)
	}
	waitCounter(t, mNegotiateFailed, failed, 1, "failed negotiations")
	if *served != 0 || mFramesRead.Value() != frames {
		t.Fatalf("server decoded a frame after hello % x", hello)
	}
}

// TestHelloVersionChecked: both sides read the hello's version byte, and
// refuse a peer that announces any framing version but their own — a v4
// peer by name, as every other — and ignore its flags byte.
func TestHelloVersionChecked(t *testing.T) {
	for _, version := range []byte{0, 1, 2, 3, 4, protoVersion, 6, 0xff} {
		ok := version == protoVersion
		t.Run(fmt.Sprintf("server-meets-v%d-client", version), func(t *testing.T) {
			hello := helloBytes(version)
			hello[5] = 2 // the flag v3 and v4 peers sent
			serverMeets(t, hello, ok)
		})
		t.Run(fmt.Sprintf("client-meets-v%d-server", version), func(t *testing.T) {
			pl := NewPipeListener()
			reply := helloBytes(version)
			reply[5] = 2
			helloStub(t, pl, reply[:])
			cl, err := Connect(pl)
			if ok {
				if err != nil || cl.Proto() != ProtoBinary {
					t.Fatalf("handshake with a v%d server: %v", version, err)
				}
				cl.Close()
				return
			}
			want := fmt.Sprintf("server speaks framing v%d, this build speaks v%d", version, protoVersion)
			if !errors.Is(err, ErrTransport) || !strings.Contains(err.Error(), want) {
				t.Fatalf("handshake with a v%d server: %v, want ErrTransport wrapping %q", version, err, want)
			}
		})
	}
	// The flags byte is ignored on both sides (bit 0 offered compression
	// once, bit 1 the trimmed form, the only one v4 and v5 speak).
	for _, flags := range []byte{0, 2, 1, 3, 0xff} {
		hello := helloBytes(protoVersion)
		hello[5] = flags
		t.Run(fmt.Sprintf("server-meets-flags-%#x", flags), func(t *testing.T) {
			serverMeets(t, hello, true)
		})
		t.Run(fmt.Sprintf("client-meets-granted-%#x", flags), func(t *testing.T) {
			pl := NewPipeListener()
			helloStub(t, pl, hello[:])
			cl, err := Connect(pl)
			if err != nil {
				t.Fatal(err)
			}
			cl.Close()
		})
	}
}

// legacyRequest opens the stream a pre-v2 client sent (recorded from
// such a build): a self-describing type section, no hello.
var legacyRequest = []byte{0xff, 0xc6, 0x7f, 0x03, 0x01, 0x01, 0x07, 'R', 'e', 'q', 'u', 'e', 's', 't',
	0x01, 0xff, 0x80, 0x00, 0x01, 0x10, 0x01, 0x02, 'O', 'p', 0x01, 0x0c, 0x00, 0x01, 0x05, 'T', 'a', 'b', 'l', 'e'}

// TestNonHelloPeerDropped: a peer that opens with anything but the hello
// is dropped and counted, is sent nothing, and nothing it sent is decoded
// as a frame — even bytes that would parse as one.
func TestNonHelloPeerDropped(t *testing.T) {
	framed := new(bytes.Buffer)
	(&frameWriter{w: framed}).writeFrame(1, AppendRequest(nil, &Request{Op: OpGet}))
	openings := map[string][]byte{
		"pre-v2 request":   legacyRequest,
		"random bytes":     {0x9e, 0x37, 0x79, 0xb9, 0x7f, 0x4a, 0x7c, 0x15, 0xf3, 0x9c, 0xc0, 0x60},
		"http":             []byte("GET / HTTP/1.1\r\n\r\n"),
		"magic then junk":  {helloMagic0, helloMagic1, helloMagic2, 'X', protoVersion, 0},
		"frame, no hello":  framed.Bytes(),
		"short: one byte":  {0x42},
		"short: cut hello": {helloMagic0, helloMagic1, helloMagic2},
	}
	for name, opening := range openings {
		t.Run(name, func(t *testing.T) {
			conn, served := rawPeer(t)
			failed, frames := mNegotiateFailed.Value(), mFramesRead.Value()
			if _, err := conn.Write(opening); err != nil {
				t.Fatal(err)
			}
			if len(opening) < 6 {
				conn.Close() // the server is still waiting for the rest of a hello
			} else if n, err := conn.Read(make([]byte, 1)); n != 0 || err != io.EOF {
				t.Fatalf("server answered a non-hello peer (read %d, %v)", n, err)
			}
			waitCounter(t, mNegotiateFailed, failed, 1, "failed negotiations")
			if *served != 0 || mFramesRead.Value() != frames {
				t.Fatal("server decoded a frame from a peer that never said hello")
			}
		})
	}
}

// TestHandshakeFailureIsFinal: Dial and Connect against a listener that
// never answers the hello return the handshake error; they do not come
// back on a second connection speaking something else.
func TestHandshakeFailureIsFinal(t *testing.T) {
	check := func(t *testing.T, ln net.Listener, connect func() (*Client, error), raw func() (net.Conn, error)) {
		accepted := helloStub(t, ln, nil)
		cl, err := connect()
		if cl != nil || !errors.Is(err, ErrTransport) || !strings.Contains(err.Error(), "handshake") {
			t.Fatalf("got client %v, error %v; want no client and the handshake's ErrTransport", cl, err)
		}
		// Connections are accepted in order: once the stub has hung up on
		// this marker it has counted everything connect opened.
		marker, err := raw()
		if err != nil {
			t.Fatal(err)
		}
		defer marker.Close()
		marker.Write(make([]byte, 6))
		if _, err := marker.Read(make([]byte, 1)); err == nil {
			t.Fatal("stub answered the marker")
		}
		if n := accepted.Load(); n != 2 {
			t.Fatalf("listener saw %d connections, want the handshake's one and the marker", n)
		}
	}
	t.Run("connect", func(t *testing.T) {
		pl := NewPipeListener()
		check(t, pl, func() (*Client, error) { return Connect(pl) }, pl.DialPipe)
	})
	t.Run("dial", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skip("no loopback networking:", err)
		}
		addr := ln.Addr().String()
		check(t, ln, func() (*Client, error) { return Dial("tcp", addr) },
			func() (net.Conn, error) { return net.Dial("tcp", addr) })
	})
}

// TestFlaggedFrameRefused: a frame whose flags byte is not zero is
// errBadFrame, read no further: the server hangs up on it without
// decoding a request, even a flate-compressed one (bit 0 once marked
// compression) that inflates to a valid request.
func TestFlaggedFrameRefused(t *testing.T) {
	var deflated bytes.Buffer
	w, _ := flate.NewWriter(&deflated, flate.BestSpeed)
	w.Write(AppendRequest(nil, &Request{Op: OpGet, PK: []byte("k")}))
	w.Close()
	for _, flags := range []byte{1, 2, 0x80} {
		t.Run(fmt.Sprintf("flags-%#x", flags), func(t *testing.T) {
			frame := binary.BigEndian.AppendUint32(nil, uint32(frameOverhead+deflated.Len()))
			frame = append(binary.BigEndian.AppendUint32(frame, 1), flags)
			frame = binary.BigEndian.AppendUint32(frame, crc32.Checksum(frame, castagnoli))
			frame = append(frame, deflated.Bytes()...)
			if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(frame)), new(frameBuf)); err != errBadFrame {
				t.Fatalf("readFrame: %v, want errBadFrame", err)
			}
			conn, served := rawPeer(t)
			hello := helloBytes(protoVersion)
			var reply [6]byte
			if _, err := conn.Write(hello[:]); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(conn, reply[:]); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			if n, err := conn.Read(make([]byte, 1)); n != 0 || err != io.EOF {
				t.Fatalf("server answered a flagged frame (read %d, %v)", n, err)
			}
			if *served != 0 {
				t.Fatal("server decoded a flagged frame")
			}
		})
	}
}

// TestMultiplexedRequests: many goroutines share one connection; every
// response must route back to its own request.
func TestMultiplexedRequests(t *testing.T) {
	ln := startEchoServer(t)
	cl, err := Connect(ln)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const workers = 16
	const perWorker = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("w%d-i%d", w, i)
				resp, err := cl.Do(Request{Op: OpGet, PK: []byte(key)})
				if err != nil {
					errs <- fmt.Errorf("%s: %v", key, err)
					return
				}
				if string(resp.Value) != "v:"+key {
					errs <- fmt.Errorf("%s: misrouted response %q", key, resp.Value)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDoAfterClose: a closed client must fail with ErrTransport, and
// outstanding waiters must be released rather than hang.
func TestDoAfterClose(t *testing.T) {
	ln := startEchoServer(t)
	cl, err := Connect(ln)
	if err != nil {
		t.Fatal(err)
	}
	checkEcho(t, cl, "pre-close")
	cl.Close()
	if _, err := cl.Do(Request{Op: OpGet, PK: []byte("post")}); err == nil {
		t.Fatal("Do succeeded on closed client")
	} else if !errors.Is(err, ErrTransport) {
		t.Fatalf("post-close error %v does not wrap ErrTransport", err)
	}
}

// ---------------------------------------------------------------------------
// Framing benchmarks: an echo round trip at two payload sizes.

func benchRoundTrip(b *testing.B, payload int) {
	val := bytes.Repeat([]byte("x"), payload)
	srv := NewHandlerServer(HandlerFunc(func(req Request) Response {
		return Response{Found: true, Value: val}
	}))
	ln, _ := Listen()
	go srv.Serve(ln)
	defer srv.Close()
	cl, err := Connect(ln)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	req := Request{Op: OpGet, Table: "t", Column: "c", PK: []byte("bench-key")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Do(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoundTripBinary(b *testing.B)    { benchRoundTrip(b, 64) }
func BenchmarkRoundTripBinary64K(b *testing.B) { benchRoundTrip(b, 64<<10) }

func BenchmarkEncodeRequest(b *testing.B) {
	req := Request{Op: OpGet, Table: "t", Column: "c", PK: []byte("bench-key")}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendRequest(buf[:0], &req)
	}
}

func BenchmarkDecodeResponse(b *testing.B) {
	resp := Response{Found: true, Value: bytes.Repeat([]byte("x"), 64)}
	enc := AppendResponse(nil, &resp)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeResponse(enc); err != nil {
			b.Fatal(err)
		}
	}
}
