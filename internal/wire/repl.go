package wire

// Replication streaming (OpReplStream): the server's pump and the
// follower's StreamBlocks.

import (
	"errors"
	"fmt"
	"net"
)

// ReplStreamer is a replication source: it attaches followers to a
// shard's committed-block stream. internal/repl implements it; servers
// expose it through Server.Repl.
type ReplStreamer interface {
	// Attach subscribes a follower whose ledger is fromHeight blocks
	// tall. The feed starts with a snapshot hand-off when the follower is
	// behind the retained log (or impossibly ahead of it), then yields
	// block frames in height order.
	Attach(remote string, fromHeight uint64) (ReplFeed, error)
}

// ReplFeed is one attached follower's view of the stream.
type ReplFeed interface {
	// Next blocks until the next event, stop closes (ErrStopped-like
	// error), or the feed fails.
	Next(stop <-chan struct{}) (ReplEvent, error)
	// Ack records that the follower's ledger is now height blocks tall.
	Ack(height uint64)
	// Close detaches the follower, releasing its log retention hold.
	Close()
}

// ReplEvent is one stream message: a snapshot hand-off or a block frame.
type ReplEvent struct {
	IsSnapshot bool
	Height     uint64 // snapshot: block count; frame: the block's index
	Snapshot   []byte
	Frame      []byte
}

// attachRepl resolves a stream request to an attached feed, or an error
// message for the client.
func (s *Server) attachRepl(conn net.Conn, req Request) (ReplFeed, string) {
	if s.Repl == nil {
		return nil, "wire: this server does not serve replication streams"
	}
	str, err := s.Repl(req.Shard)
	if err != nil {
		return nil, err.Error()
	}
	remote := "?"
	if addr := conn.RemoteAddr(); addr != nil {
		remote = addr.String()
	}
	feed, err := str.Attach(remote, req.Height)
	if err != nil {
		return nil, err.Error()
	}
	return feed, ""
}

// pumpRepl drives one attached feed onto the connection as tagged
// response frames until the follower disconnects, the server stops, or
// the feed fails.
func (s *Server) pumpRepl(fw *frameWriter, tag uint32, feed ReplFeed, connDone <-chan struct{}) {
	defer feed.Close()
	stop := make(chan struct{})
	streamDone := make(chan struct{})
	defer close(streamDone)
	go func() {
		defer close(stop)
		select {
		case <-connDone:
		case <-s.stopc:
		case <-streamDone:
		}
	}()
	for {
		ev, err := feed.Next(stop)
		if err != nil {
			fw.writeFrame(tag, AppendResponse(nil, &Response{Err: err.Error()}))
			return
		}
		resp := Response{Height: ev.Height}
		if ev.IsSnapshot {
			resp.Found = true
			resp.Value = ev.Snapshot
		} else {
			resp.Value = ev.Frame
		}
		out := getBuf()
		out.b = AppendResponse(out.b[:0], &resp)
		err = fw.writeFrame(tag, out.b)
		putBuf(out)
		if err != nil {
			return
		}
	}
}

// StreamBlocks subscribes to a shard's committed-block stream from the
// given height and drives the callbacks until the stream ends. Both
// callbacks return the follower's resulting ledger height, which is
// acknowledged back to the primary (its follower lag accounting).
// The stream is just another tag, so the connection stays usable for
// queries.
func (c *Client) StreamBlocks(shard int, from uint64,
	onSnapshot func(snapshot []byte, height uint64) (uint64, error),
	onBlock func(height uint64, frame []byte) (uint64, error)) error {
	if err := c.Handshake(); err != nil {
		return err
	}
	tag, w, err := c.register(true, 16)
	if err != nil {
		return err
	}
	defer func() {
		c.unregister(tag)
		// The demux goroutine may be blocked delivering to this stream's
		// now-abandoned channel; draining frees it. At most one blocked
		// delivery can exist — the tag is out of the map, so the next
		// frame for it is dropped instead of delivered.
		for {
			select {
			case _, ok := <-w.ch:
				if !ok {
					return
				}
			default:
				return
			}
		}
	}()
	req := Request{Op: OpReplStream, Shard: shard, Height: from}
	buf := getBuf()
	buf.b = AppendRequest(buf.b[:0], &req)
	err = c.fw.writeFrame(tag, buf.b)
	putBuf(buf)
	if err != nil {
		if !c.unregister(tag) {
			return c.transportErr()
		}
		return fmt.Errorf("%w: send: %v", ErrTransport, err)
	}
	for {
		resp, err := c.await(tag, w)
		if err != nil {
			return err
		}
		if resp.Err != "" {
			return errors.New(resp.Err)
		}
		var height uint64
		if resp.Found {
			height, err = onSnapshot(resp.Value, resp.Height)
		} else {
			height, err = onBlock(resp.Height, resp.Value)
		}
		if err != nil {
			return err
		}
		ack := Request{Op: OpReplAck, Height: height}
		buf := getBuf()
		buf.b = AppendRequest(buf.b[:0], &ack)
		err = c.fw.writeFrame(tag, buf.b)
		putBuf(buf)
		if err != nil {
			return fmt.Errorf("%w: ack: %v", ErrTransport, err)
		}
	}
}
