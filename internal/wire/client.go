package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"spitz/internal/ledger"
	"spitz/internal/proof"
)

// Client is a protocol client over one connection. Safe for concurrent
// use: concurrent requests are multiplexed as in-flight tagged frames.
type Client struct {
	conn net.Conn

	mu      sync.Mutex
	started bool
	hserr   error

	// Inbound frames are demultiplexed by reader election rather than a
	// dedicated goroutine: whichever waiter holds the baton token reads
	// frames off the connection, delivering other tags' responses to
	// their waiters, until its own arrives. A serial client therefore
	// reads its response on its own goroutine — no context-switch per
	// op — while pipelined callers still multiplex.
	fw      *frameWriter
	br      *bufio.Reader
	nextTag uint32
	pending map[uint32]*pendWaiter
	readErr error
	baton   chan struct{} // cap 1: token present iff no reader is active
}

// pendWaiter is one in-flight request (or attached stream) awaiting
// tagged response frames. The channel is closed when the connection
// fails; stream waiters keep their registration across many responses.
type pendWaiter struct {
	ch     chan Response
	stream bool
}

// Dial connects to a server address on the given network and runs the
// handshake; a server that does not answer it is an error, not a reason
// to redial.
func Dial(network, addr string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial: %w", err)
	}
	return handshaken(conn)
}

// handshaken wraps a fresh connection and runs the handshake, closing
// the connection when the peer does not complete it.
func handshaken(conn net.Conn) (*Client, error) {
	c := NewClient(conn)
	if err := c.Handshake(); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient wraps an established connection. The protocol handshake
// runs lazily on first use (call Handshake to force it).
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn}
}

// Handshake performs protocol negotiation if it has not run yet. It is
// idempotent; every request path calls it first.
func (c *Client) Handshake() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.handshakeLocked()
}

func (c *Client) handshakeLocked() error {
	if c.started {
		return c.hserr
	}
	c.started = true
	hello := helloBytes(protoVersion, flagTrim)
	if _, err := c.conn.Write(hello[:]); err != nil {
		c.hserr = fmt.Errorf("%w: handshake: %v", ErrTransport, err)
		return c.hserr
	}
	br := bufio.NewReaderSize(c.conn, 1<<16)
	var reply [6]byte
	if _, err := io.ReadFull(br, reply[:]); err != nil {
		mNegotiateFailed.Inc()
		c.hserr = fmt.Errorf("%w: handshake: %v", ErrTransport, err)
		return c.hserr
	}
	version, rflags, err := parseHello(reply[:])
	switch {
	case err != nil:
	case version != protoVersion:
		err = fmt.Errorf("server speaks framing v%d, this build speaks v%d", version, protoVersion)
	case rflags&flagTrim == 0:
		err = errors.New("server does not speak the trimmed message form (hello flag 0x2), the only one this build speaks")
	}
	if err != nil {
		mNegotiateFailed.Inc()
		c.hserr = fmt.Errorf("%w: %v", ErrTransport, err)
		return c.hserr
	}
	c.br = br
	c.fw = &frameWriter{w: c.conn}
	c.pending = make(map[uint32]*pendWaiter)
	c.nextTag = 1
	c.baton = make(chan struct{}, 1)
	c.baton <- struct{}{}
	mNegotiatedBinary.Inc()
	return nil
}

// Proto reports the negotiated protocol (ProtoBinary), forcing the
// handshake if it has not run; "" means negotiation failed.
func (c *Client) Proto() string {
	if c.Handshake() != nil {
		return ""
	}
	return ProtoBinary
}

// await blocks until the response for tag arrives — either delivered by
// another waiter acting as reader, or by this goroutine winning the
// baton and reading the connection itself.
func (c *Client) await(tag uint32, w *pendWaiter) (Response, error) {
	for {
		select {
		case resp, ok := <-w.ch:
			if !ok {
				return Response{}, c.transportErr()
			}
			return resp, nil
		case <-c.baton:
			// A previous reader may have delivered our response just
			// before handing over the baton; prefer it over reading.
			select {
			case resp, ok := <-w.ch:
				c.releaseBaton()
				if !ok {
					return Response{}, c.transportErr()
				}
				return resp, nil
			default:
			}
			resp, err := c.readUntil(tag, w)
			if err != nil {
				return Response{}, err // connection failed; baton retired
			}
			c.releaseBaton()
			return resp, nil
		}
	}
}

// readUntil reads and routes frames as the connection's reader until a
// frame for own arrives. Only the baton holder may call it.
func (c *Client) readUntil(own uint32, ownW *pendWaiter) (Response, error) {
	buf := getBuf()
	defer putBuf(buf)
	for {
		tag, payload, err := readFrame(c.br, buf)
		if err != nil {
			return Response{}, c.failConn(fmt.Errorf("%w: receive: %v", ErrTransport, err))
		}
		resp, err := DecodeResponse(payload)
		if err != nil {
			return Response{}, c.failConn(fmt.Errorf("%w: corrupt response payload", ErrTransport))
		}
		if tag == own {
			if !ownW.stream {
				c.mu.Lock()
				delete(c.pending, own)
				c.mu.Unlock()
			}
			return resp, nil
		}
		c.mu.Lock()
		w := c.pending[tag]
		if w != nil && !w.stream {
			delete(c.pending, tag)
		}
		c.mu.Unlock()
		if w != nil {
			// Frames for unknown tags are dropped — they belong to
			// requests or streams whose waiter already gave up.
			w.ch <- resp
		}
	}
}

// failConn records a connection-level failure and wakes every waiter.
// The baton is retired with the connection: registering new requests
// fails on readErr, so no waiter can block on it afterwards.
func (c *Client) failConn(err error) error {
	c.conn.Close()
	c.mu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, w := range pending {
		close(w.ch)
	}
	return err
}

// releaseBaton returns the reader token after a successful read.
func (c *Client) releaseBaton() {
	select {
	case c.baton <- struct{}{}:
	default:
	}
}

// register allocates a tag for a new in-flight request or stream.
func (c *Client) register(stream bool, buffered int) (uint32, *pendWaiter, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return 0, nil, c.readErr
	}
	tag := c.nextTag
	c.nextTag++
	w := &pendWaiter{ch: make(chan Response, buffered), stream: stream}
	c.pending[tag] = w
	return tag, w, nil
}

// unregister drops a tag's waiter (request failed to send, or a stream
// ended). Reports false when failConn already claimed the waiter — the
// caller must not receive from a channel it no longer owns.
func (c *Client) unregister(tag uint32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending == nil {
		return false
	}
	_, ok := c.pending[tag]
	delete(c.pending, tag)
	return ok
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// ErrTransport marks connection-level failures (as opposed to errors the
// server reported). Clients with fallback targets — a replicated client
// failing over between replicas — retry on it and surface anything else.
var ErrTransport = errors.New("wire: transport failed")

// Do performs one request/response round trip. Many Dos may be in
// flight on the connection at once.
func (c *Client) Do(req Request) (Response, error) {
	if err := c.Handshake(); err != nil {
		return Response{}, err
	}
	tag, w, err := c.register(false, 1)
	if err != nil {
		return Response{}, err
	}
	mPipelineDepth.Add(1)
	defer mPipelineDepth.Add(-1)
	buf := getBuf()
	buf.b = AppendRequest(buf.b[:0], &req)
	err = c.fw.writeFrame(tag, buf.b)
	putBuf(buf)
	if err != nil {
		if c.unregister(tag) {
			return Response{}, fmt.Errorf("%w: send: %v", ErrTransport, err)
		}
		return Response{}, c.transportErr()
	}
	resp, err := c.await(tag, w)
	if err != nil {
		return Response{}, err
	}
	if resp.Err != "" {
		return resp, errors.New(resp.Err)
	}
	asked(&req, resp.Proof)
	return resp, nil
}

// asked gives a point or range read's proof back with the key or bounds
// its request asked, which the trimmed form leaves out, so a caller
// holding only the response can check it on its own (Verifier.VerifyNow
// walks a proof's own keys). Nothing is read from the proof here: Check
// walks its caller's queries, to which these must then be equal.
func asked(req *Request, p *ledger.Proof) {
	switch {
	case p == nil:
	case (req.Op == OpGetVerified || req.Op == OpHistory) && p.Point != nil && p.Point.Keys == nil:
		p.Point.Keys = [][]byte{proof.CellPrefix(req.Table, req.Column, req.PK)}
	case req.Op == OpRangeVer && len(p.Ranges) == 1 && p.Ranges[0].Start == nil:
		p.Ranges[0].Start, p.Ranges[0].End = proof.RefRange(req.Table, req.Column, req.PK, req.PKHi)
	}
}

// transportErr returns the recorded connection failure.
func (c *Client) transportErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return c.readErr
	}
	return ErrTransport
}
