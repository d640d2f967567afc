package wire

// Binary framing for protocol v3.
//
// Connect-time handshake: the client opens with a 6-byte hello — magic
// 0x00 'S' 'P' 'Z', a version byte, and a flags byte. The server
// answers with the same magic, the version it speaks, and the flags it
// speaks (flagTrim). Either side drops a peer whose version byte is not
// its own or whose flags lack flagTrim (the server after replying, so the
// peer learns what it met); a server drops a connection that opens with
// anything but the hello without replying.
//
// Frame layout, both directions, after the handshake:
//
//	length  uint32 BE   bytes after this field (tag+flags+crc+payload)
//	tag     uint32 BE   request/stream identifier for multiplexing
//	flags   byte        zero; a frame with any bit set is refused
//	crc     uint32 BE   CRC-32C over the 9 preceding header bytes
//	payload length-9 bytes
//
// The header CRC exists so a corrupted length or tag is detected
// instead of desynchronizing the stream — a flipped length bit would
// otherwise make the reader block forever waiting for bytes that never
// come, and a flipped tag would deliver a response to the wrong waiter.
// Payload corruption is the verification layer's job: proofs are
// self-authenticating, which is the whole point of the system.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"spitz/internal/obs"
)

// ProtoBinary names the framing in Stats and Client.Proto.
const ProtoBinary = "binary/v4"

const (
	helloMagic0 = 0x00
	helloMagic1 = 'S'
	helloMagic2 = 'P'
	helloMagic3 = 'Z'

	// protoVersion is the framing version this build speaks. 4: a cell
	// version names the one it replaced (proof.FlagLinked), so a head entry in
	// a proof may carry a link, and OpHistory answers with the head's point
	// proof and its chain (Response.Chain). 3: leaves in proofs travel as a
	// run of entries and a hash path (internal/posleaf), and point and
	// batch proofs no longer carry their values beside them.
	protoVersion = 4

	// flagTrim in the hello names the trimmed form of the verified-read
	// messages, the only form this build speaks, and both hellos must
	// carry it: a request names the index nodes its client holds by
	// fingerprint (reqFingerprints), and a proof travels without the
	// question it answers and, unbound, without the digest (fit) — the
	// client supplies both. A hello's other bits are ignored.
	flagTrim = 2

	frameHeaderLen = 13
	frameOverhead  = 9 // tag + flags + crc, counted by the length field

	// maxFrameLen bounds a frame's self-declared size. Snapshots are the
	// largest legitimate payload; 1 GiB is far above anything real while
	// still preventing a pathological allocation.
	maxFrameLen = 1 << 30

	// largeFrame is the payload size above which header and payload are
	// written separately instead of copied into one buffer.
	largeFrame = 64 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errBadFrame reports a frame header that failed its CRC or bounds
// checks, or set a flag; the connection cannot be resynchronized and must
// die.
var errBadFrame = errors.New("wire: corrupt frame header")

var (
	mNegotiatedBinary = obs.Default.Counter(`spitz_wire_negotiations_total{proto="binary"}`)
	mNegotiateFailed  = obs.Default.Counter(`spitz_wire_negotiations_total{proto="failed"}`)

	mFramesRead    = obs.Default.Counter("spitz_wire_frames_read_total")
	mFramesWritten = obs.Default.Counter("spitz_wire_frames_written_total")

	// mFramesInflight counts requests a binary server has accepted but
	// not yet answered, across all conns; mPipelineDepth counts client
	// requests awaiting a response across all multiplexed conns.
	mFramesInflight = obs.Default.Gauge("spitz_wire_frames_inflight")
	mPipelineDepth  = obs.Default.Gauge("spitz_wire_pipeline_depth")
)

// bufPool recycles frame encode/decode buffers across requests — the
// zero-allocation half of the hot path.
var bufPool = sync.Pool{New: func() any { return new(frameBuf) }}

type frameBuf struct{ b []byte }

func getBuf() *frameBuf  { return bufPool.Get().(*frameBuf) }
func putBuf(f *frameBuf) { f.b = f.b[:0]; bufPool.Put(f) }

// helloBytes builds a 6-byte hello/reply.
func helloBytes(version, flags byte) [6]byte {
	return [6]byte{helloMagic0, helloMagic1, helloMagic2, helloMagic3, version, flags}
}

// parseHello validates a 6-byte hello and returns (version, flags).
func parseHello(h []byte) (byte, byte, error) {
	if len(h) != 6 || h[0] != helloMagic0 || h[1] != helloMagic1 ||
		h[2] != helloMagic2 || h[3] != helloMagic3 {
		return 0, 0, fmt.Errorf("wire: bad protocol hello % x", h)
	}
	return h[4], h[5], nil
}

// frameWriter serializes frames onto a conn. A single Write per frame
// keeps frames atomic with respect to fault injection and avoids
// interleaving under the shared write lock.
type frameWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// writeFrame sends one frame carrying payload under tag.
func (fw *frameWriter) writeFrame(tag uint32, payload []byte) error {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(frameOverhead+len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], tag)
	binary.BigEndian.PutUint32(hdr[9:], crc32.Checksum(hdr[:9], castagnoli))

	var err error
	if len(payload) >= largeFrame {
		// Copying a multi-MB payload behind a 13-byte header costs more
		// than a second write; send header and payload separately (still
		// adjacent — the mutex spans both).
		fw.mu.Lock()
		if _, err = fw.w.Write(hdr[:]); err == nil {
			_, err = fw.w.Write(payload)
		}
		fw.mu.Unlock()
	} else {
		buf := getBuf()
		b := append(buf.b[:0], hdr[:]...)
		b = append(b, payload...)
		fw.mu.Lock()
		_, err = fw.w.Write(b)
		fw.mu.Unlock()
		buf.b = b
		putBuf(buf)
	}
	if err == nil {
		mFramesWritten.Inc()
	}
	return err
}

// readFrame reads one frame into buf (which it may grow), returning the
// tag and the payload. The payload aliases buf.b, so it is only valid
// until buf is recycled.
func readFrame(br *bufio.Reader, buf *frameBuf) (tag uint32, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, err
	}
	if crc32.Checksum(hdr[:9], castagnoli) != binary.BigEndian.Uint32(hdr[9:]) {
		return 0, nil, errBadFrame
	}
	length := binary.BigEndian.Uint32(hdr[0:])
	if length < frameOverhead || length > maxFrameLen || hdr[8] != 0 {
		return 0, nil, errBadFrame
	}
	tag = binary.BigEndian.Uint32(hdr[4:])
	n := int(length) - frameOverhead
	if cap(buf.b) < n {
		buf.b = make([]byte, n)
	}
	payload = buf.b[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, err
	}
	mFramesRead.Inc()
	return tag, payload, nil
}
