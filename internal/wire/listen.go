package wire

import (
	"errors"
	"net"
	"sync"
)

// Listen opens a loopback TCP listener, falling back to an in-process pipe
// listener in environments without networking (sandboxes, some CI). The
// pipe listener preserves the protocol's serialization and scheduling
// costs, so the non-intrusive experiment remains meaningful either way.
func Listen() (net.Listener, string) {
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		return ln, "tcp"
	}
	return NewPipeListener(), "pipe"
}

// PipeListener is a net.Listener whose connections are synchronous
// in-memory pipes created by DialPipe.
type PipeListener struct {
	ch        chan net.Conn
	done      chan struct{}
	closeOnce sync.Once
}

// errPipeClosed is returned by Accept and DialPipe after Close.
var errPipeClosed = errors.New("wire: pipe listener closed")

// NewPipeListener returns an open pipe listener.
func NewPipeListener() *PipeListener {
	return &PipeListener{ch: make(chan net.Conn), done: make(chan struct{})}
}

// Accept implements net.Listener.
func (l *PipeListener) Accept() (net.Conn, error) {
	select {
	case conn := <-l.ch:
		return conn, nil
	case <-l.done:
		return nil, errPipeClosed
	}
}

// Close implements net.Listener. The conn channel is never closed —
// shutdown is signalled through done, so an in-flight DialPipe can never
// panic with a send on a closed channel however Close races it.
func (l *PipeListener) Close() error {
	l.closeOnce.Do(func() { close(l.done) })
	return nil
}

// Addr implements net.Listener.
func (l *PipeListener) Addr() net.Addr { return pipeAddr{} }

// DialPipe connects a new client conn to the listener. It blocks until an
// Accept takes the server end or the listener closes.
func (l *PipeListener) DialPipe() (net.Conn, error) {
	select {
	case <-l.done:
		return nil, errPipeClosed
	default:
	}
	client, server := net.Pipe()
	select {
	case l.ch <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, errPipeClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// Connect returns a client for a listener created by Listen, regardless of
// transport. The handshake runs eagerly; a server that does not answer
// it is an error.
func Connect(ln net.Listener) (*Client, error) {
	pl, ok := ln.(*PipeListener)
	if !ok {
		return Dial(ln.Addr().Network(), ln.Addr().String())
	}
	conn, err := pl.DialPipe()
	if err != nil {
		return nil, err
	}
	return handshaken(conn)
}
