package chunk

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestSplitJoinRoundTrip(t *testing.T) {
	c := New(Options{})
	for _, n := range []int{0, 1, 100, 511, 512, 513, 4096, 100_000} {
		data := randomBytes(n, int64(n))
		chunks := c.Split(data)
		if got := Join(chunks); !bytes.Equal(got, data) {
			t.Fatalf("n=%d: Join(Split(data)) != data", n)
		}
	}
}

func TestSplitEmpty(t *testing.T) {
	c := New(Options{})
	if chunks := c.Split(nil); chunks != nil {
		t.Fatalf("Split(nil) = %d chunks, want none", len(chunks))
	}
}

func TestSplitRespectsBounds(t *testing.T) {
	opts := Options{MinSize: 512, AvgSize: 2048, MaxSize: 8192}
	c := New(opts)
	data := randomBytes(1<<20, 7)
	chunks := c.Split(data)
	if len(chunks) < 2 {
		t.Fatal("expected many chunks for 1 MiB input")
	}
	for i, ch := range chunks {
		if len(ch.Data) > opts.MaxSize {
			t.Fatalf("chunk %d size %d exceeds max %d", i, len(ch.Data), opts.MaxSize)
		}
		if i < len(chunks)-1 && len(ch.Data) < opts.MinSize {
			t.Fatalf("non-final chunk %d size %d below min %d", i, len(ch.Data), opts.MinSize)
		}
	}
}

func TestSplitAverageSize(t *testing.T) {
	c := New(Options{MinSize: 256, AvgSize: 1024, MaxSize: 16384})
	data := randomBytes(1<<21, 11)
	chunks := c.Split(data)
	avg := len(data) / len(chunks)
	// Content-defined boundaries with min-size suppression land above the
	// nominal average; accept a generous band.
	if avg < 512 || avg > 4096 {
		t.Fatalf("average chunk size %d outside [512,4096]", avg)
	}
}

func TestSplitDeterministic(t *testing.T) {
	c := New(Options{})
	data := randomBytes(200_000, 3)
	a := c.Split(data)
	b := c.Split(data)
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Digest != b[i].Digest {
			t.Fatalf("chunk %d digest differs between runs", i)
		}
	}
}

// The defining CDC property: a local edit re-chunks only a local region, so
// most chunk digests are shared with the original.
func TestSplitLocalEditSharesChunks(t *testing.T) {
	c := New(Options{})
	data := randomBytes(256*1024, 5)
	edited := append([]byte(nil), data...)
	copy(edited[100_000:], []byte("EDITED REGION"))

	orig := digestSet(c.Split(data))
	var shared, total int
	for _, ch := range c.Split(edited) {
		total++
		if orig[ch.Digest] {
			shared++
		}
	}
	if frac := float64(shared) / float64(total); frac < 0.80 {
		t.Fatalf("only %.0f%% of chunks shared after a 13-byte edit; CDC broken", frac*100)
	}
}

// Fixed-size chunking must NOT share chunks after an insertion (this is the
// contrast that justifies CDC).
func TestFixedChunkingShiftsOnInsert(t *testing.T) {
	data := randomBytes(64*1024, 9)
	inserted := append([]byte{0xFF}, data...)

	orig := digestSet(SplitFixed(data, 4096))
	var shared int
	chunks := SplitFixed(inserted, 4096)
	for _, ch := range chunks {
		if orig[ch.Digest] {
			shared++
		}
	}
	if shared > 1 {
		t.Fatalf("fixed chunking shared %d/%d chunks after insert; expected ~0", shared, len(chunks))
	}

	c := New(Options{})
	origCDC := digestSet(c.Split(data))
	var sharedCDC, totalCDC int
	for _, ch := range c.Split(inserted) {
		totalCDC++
		if origCDC[ch.Digest] {
			sharedCDC++
		}
	}
	if frac := float64(sharedCDC) / float64(totalCDC); frac < 0.5 {
		t.Fatalf("CDC shared only %.0f%% after one-byte insert", frac*100)
	}
}

func TestSplitFixedSizes(t *testing.T) {
	data := randomBytes(10_000, 1)
	chunks := SplitFixed(data, 4096)
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks, want 3", len(chunks))
	}
	if len(chunks[2].Data) != 10_000-2*4096 {
		t.Fatalf("tail chunk size = %d", len(chunks[2].Data))
	}
	if !bytes.Equal(Join(chunks), data) {
		t.Fatal("fixed split/join mismatch")
	}
	if got := SplitFixed(data, 0); len(got) == 0 {
		t.Fatal("SplitFixed with size 0 should fall back to a default")
	}
}

func digestSet(chunks []Chunk) map[[32]byte]bool {
	m := make(map[[32]byte]bool, len(chunks))
	for _, c := range chunks {
		m[c.Digest] = true
	}
	return m
}

// Property: Join(Split(x)) == x for arbitrary inputs.
func TestQuickRoundTrip(t *testing.T) {
	c := New(Options{MinSize: 64, AvgSize: 256, MaxSize: 1024, Window: 32})
	f := func(data []byte) bool {
		return bytes.Equal(Join(c.Split(data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: chunk digests commit to chunk contents.
func TestQuickDigestBinding(t *testing.T) {
	c := New(Options{MinSize: 64, AvgSize: 256, MaxSize: 1024, Window: 32})
	f := func(data []byte) bool {
		for _, ch := range c.Split(data) {
			want := makeChunk(ch.Data).Digest
			if ch.Digest != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSplitCDC(b *testing.B) {
	c := New(Options{})
	data := randomBytes(1<<20, 42)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Split(data)
	}
}
