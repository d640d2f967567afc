package wire

import (
	"encoding/binary"
	"hash/crc32"
	"net"
	"sync"
	"time"
)

// This file is fault-injection tooling for tamper-detection and chaos
// tests: a listener whose connections can delay, corrupt, and drop the
// server's responses at the byte level, and a Handler wrapper that
// mutates structured responses before they are encoded. Production
// servers never construct these; the test suites across the repository
// share them to assert that every injected fault surfaces as an error —
// never a silent pass.

// Faults configures the write-side behaviour of a faulty connection.
// The zero value injects nothing.
type Faults struct {
	// Delay sleeps this long before every server write (latency fault;
	// must never affect correctness, only timing).
	Delay time.Duration
	// FlipOffset, when FlipEnabled, XORs the byte at this absolute offset
	// of the server->client stream with 0xFF (a burst of bit flips in one
	// byte — the strongest single-byte corruption).
	FlipEnabled bool
	FlipOffset  int64
	// CloseAfter, when positive, closes the connection after that many
	// response bytes have been written (a mid-response drop).
	CloseAfter int64

	// FrameMode, when not FrameNone, injects a fault into the FrameIndex-th
	// binary frame the server writes (0-based). Frames are recognized by
	// their header CRC, so the handshake reply is never miscounted as a
	// frame.
	FrameMode  FrameMode
	FrameIndex int
}

// FrameMode selects a frame-granularity fault.
type FrameMode int

// Frame fault modes.
const (
	FrameNone FrameMode = iota
	// FrameTruncate drops the second half of the frame's bytes and
	// closes the connection (a mid-frame drop).
	FrameTruncate
	// FrameCorruptLen XORs the low byte of the frame's length field.
	FrameCorruptLen
	// FrameCorruptTag XORs the low byte of the frame's tag field —
	// interleaved-tag corruption: the response would be delivered to
	// the wrong waiter if the header CRC did not catch it.
	FrameCorruptTag
)

// FaultListener wraps a listener so every accepted connection applies
// the faults configured at accept time.
type FaultListener struct {
	net.Listener
	mu     sync.Mutex
	faults Faults
}

// NewFaultListener wraps inner.
func NewFaultListener(inner net.Listener) *FaultListener {
	return &FaultListener{Listener: inner}
}

// SetFaults installs the fault plan for subsequently accepted
// connections.
func (l *FaultListener) SetFaults(f Faults) {
	l.mu.Lock()
	l.faults = f
	l.mu.Unlock()
}

// Accept implements net.Listener.
func (l *FaultListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	f := l.faults
	l.mu.Unlock()
	return &faultConn{Conn: conn, faults: f}, nil
}

// faultConn applies Faults to the write side of a connection.
type faultConn struct {
	net.Conn
	faults  Faults
	written int64
	frames  int
}

// isFrameStart reports whether a write begins with a valid binary frame
// header (its CRC covers the 9 preceding bytes, so random data cannot
// pass). Large frames are written as header+payload in two writes; only
// the header write matches, so each frame counts once.
func isFrameStart(p []byte) bool {
	if len(p) < frameHeaderLen {
		return false
	}
	return crc32.Checksum(p[:9], castagnoli) == binary.BigEndian.Uint32(p[9:13])
}

func (c *faultConn) Write(p []byte) (int, error) {
	if c.faults.Delay > 0 {
		time.Sleep(c.faults.Delay)
	}
	if c.faults.FrameMode != FrameNone && isFrameStart(p) {
		idx := c.frames
		c.frames++
		if idx == c.faults.FrameIndex {
			switch c.faults.FrameMode {
			case FrameTruncate:
				keep := len(p) / 2
				n, _ := c.Conn.Write(p[:keep])
				c.written += int64(n)
				c.Conn.Close()
				return len(p), nil // the drop surfaces on the peer
			case FrameCorruptLen:
				q := append([]byte(nil), p...)
				q[3] ^= 0xFF
				p = q
			case FrameCorruptTag:
				q := append([]byte(nil), p...)
				q[7] ^= 0xFF
				p = q
			}
		}
	}
	if c.faults.FlipEnabled {
		off := c.faults.FlipOffset - c.written
		if off >= 0 && off < int64(len(p)) {
			q := make([]byte, len(p))
			copy(q, p)
			q[off] ^= 0xFF
			p = q
		}
	}
	if ca := c.faults.CloseAfter; ca > 0 && c.written+int64(len(p)) >= ca {
		keep := ca - c.written
		if keep > 0 {
			n, _ := c.Conn.Write(p[:keep])
			c.written += int64(n)
		}
		c.Conn.Close()
		return len(p), nil // pretend success; the drop surfaces on the peer
	}
	n, err := c.Conn.Write(p)
	c.written += int64(n)
	return n, err
}

// MutateHandler wraps a Handler so every response passes through mutate
// before encoding — structured tamper injection (flip a proof byte,
// swap values, drop nodes) with exact control over what is corrupted.
func MutateHandler(h Handler, mutate func(req Request, resp *Response)) Handler {
	return HandlerFunc(func(req Request) Response {
		resp := h.Handle(req)
		mutate(req, &resp)
		return resp
	})
}
