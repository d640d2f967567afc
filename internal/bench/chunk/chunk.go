// Package chunk implements content-defined chunking (CDC) with a rolling
// hash, plus a trivial fixed-size chunker for comparison.
//
// ForkBase deduplicates immutable data by splitting values into chunks at
// content-determined boundaries: a boundary is declared whenever the rolling
// hash of the last windowSize bytes matches a bit pattern. Editing a few
// bytes of a large value therefore invalidates only the chunks around the
// edit; all other chunks keep their content hash and are shared between
// versions in the content-addressed store. This mechanism is what Figure 1
// of the paper measures.
package chunk

import "spitz/internal/hashutil"

// Chunk is a contiguous piece of a value together with its content digest.
type Chunk struct {
	Data   []byte
	Digest hashutil.Digest
}

// Options configures a Chunker.
type Options struct {
	// MinSize is the smallest chunk the chunker will emit (boundary checks
	// are suppressed before this many bytes). Defaults to 512.
	MinSize int
	// AvgSize is the target average chunk size; it must be a power of two.
	// Defaults to 2048.
	AvgSize int
	// MaxSize caps chunk length; a boundary is forced at this size.
	// Defaults to 8192.
	MaxSize int
	// Window is the rolling hash window length. Defaults to 48.
	Window int
}

func (o Options) withDefaults() Options {
	if o.MinSize == 0 {
		o.MinSize = 512
	}
	if o.AvgSize == 0 {
		o.AvgSize = 2048
	}
	if o.MaxSize == 0 {
		o.MaxSize = 8192
	}
	if o.Window == 0 {
		o.Window = 48
	}
	if o.MinSize < o.Window {
		o.MinSize = o.Window
	}
	if o.MaxSize < o.MinSize {
		o.MaxSize = o.MinSize
	}
	return o
}

// Chunker splits byte slices into content-defined chunks. The zero value is
// not usable; construct with New.
type Chunker struct {
	opts Options
	mask uint32
}

// New returns a Chunker with the given options (zero fields take defaults).
func New(opts Options) *Chunker {
	opts = opts.withDefaults()
	// A boundary fires when hash&mask == mask; mask has log2(AvgSize) bits,
	// so boundaries occur on average every AvgSize bytes.
	mask := uint32(opts.AvgSize - 1)
	return &Chunker{opts: opts, mask: mask}
}

// Split divides data into chunks. The returned chunks reference sub-slices
// of data; callers that retain chunks beyond the lifetime of data must copy.
// Empty input yields no chunks.
func (c *Chunker) Split(data []byte) []Chunk {
	if len(data) == 0 {
		return nil
	}
	var out []Chunk
	start := 0
	var h rollingHash
	h.init(c.opts.Window)
	for i := 0; i < len(data); i++ {
		h.roll(data[i])
		n := i - start + 1
		if n < c.opts.MinSize {
			continue
		}
		if n >= c.opts.MaxSize || (h.sum()&c.mask) == c.mask {
			out = append(out, makeChunk(data[start:i+1]))
			start = i + 1
			h.init(c.opts.Window)
		}
	}
	if start < len(data) {
		out = append(out, makeChunk(data[start:]))
	}
	return out
}

// SplitFixed divides data into fixed-size chunks of the given size. It is
// the non-content-defined comparator: any insertion shifts every subsequent
// boundary and destroys dedup.
func SplitFixed(data []byte, size int) []Chunk {
	if size <= 0 {
		size = 4096
	}
	var out []Chunk
	for len(data) > 0 {
		n := size
		if n > len(data) {
			n = len(data)
		}
		out = append(out, makeChunk(data[:n]))
		data = data[n:]
	}
	return out
}

// Join reassembles chunk data in order. It is the inverse of Split.
func Join(chunks []Chunk) []byte {
	var n int
	for _, c := range chunks {
		n += len(c.Data)
	}
	out := make([]byte, 0, n)
	for _, c := range chunks {
		out = append(out, c.Data...)
	}
	return out
}

func makeChunk(b []byte) Chunk {
	return Chunk{Data: b, Digest: hashutil.Sum(hashutil.DomainChunk, b)}
}

// rollingHash is a buzhash over a fixed window. It is cheap to roll by one
// byte and gives content-determined boundaries that survive insertions.
type rollingHash struct {
	window []byte
	pos    int
	h      uint32
	size   int
}

func (r *rollingHash) init(size int) {
	if cap(r.window) < size {
		r.window = make([]byte, size)
	} else {
		r.window = r.window[:size]
		for i := range r.window {
			r.window[i] = 0
		}
	}
	r.pos = 0
	r.h = 0
	r.size = size
}

func (r *rollingHash) roll(b byte) {
	out := r.window[r.pos]
	r.window[r.pos] = b
	r.pos = (r.pos + 1) % r.size
	// Rotate the hash left by one, remove the outgoing byte (rotated by
	// window size, which is a no-op for rotations mod 32 when size%32==0;
	// using the standard buzhash formulation with precomputed table).
	r.h = rotl(r.h, 1) ^ rotl(buzTable[out], uint(r.size)%32) ^ buzTable[b]
}

func (r *rollingHash) sum() uint32 { return r.h }

func rotl(x uint32, k uint) uint32 {
	k %= 32
	return x<<k | x>>(32-k)
}

// buzTable maps bytes to random 32-bit values. Generated once from a fixed
// linear congruential generator so builds are reproducible.
var buzTable = func() [256]uint32 {
	var t [256]uint32
	state := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		state = state*6364136223846793005 + 1442695040888963407
		t[i] = uint32(state >> 32)
	}
	return t
}()
