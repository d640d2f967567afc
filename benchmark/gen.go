package main

import (
	"encoding/binary"
	"math"
	"strconv"
	"sync/atomic"
)

// mix64 is the splitmix64 finalizer: the one source of pseudo-randomness
// in the harness, so a seed reproduces the same inputs on any Go version.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: mix64(seed)} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf samples ranks in [0, n) with the YCSB generator (Gray et al.,
// "Quickly generating billion-record synthetic databases"): rank 0 is the
// hottest. theta 0.99 is the YCSB default skew.
type zipf struct {
	n                 int
	theta, alpha, eta float64
	zetan, half       float64
}

func newZipf(n int, theta float64) *zipf {
	z := &zipf{n: n, theta: theta, alpha: 1 / (1 - theta)}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	z.half = 1 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

func (z *zipf) rank(u float64) int {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	r := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// scatter is a multiplier coprime with every row count in use (they are all
// 2^a·5^b), so rank -> (rank*scatter) mod rows is a bijection: hot ranks
// land on keys spread across the tree and the shards instead of a prefix.
const scatter = 1000003

// pkOf is the 16-byte primary key of row idx. Keys sort by idx, so a pk
// range of width w covers exactly w preloaded rows.
func pkOf(idx int) []byte {
	b := make([]byte, 16)
	b[0] = 'k'
	for i := 15; i >= 1; i-- {
		b[i] = byte('0' + idx%10)
		idx /= 10
	}
	return b
}

// dataSeed fixes the data set: every run, whatever its --seed, preloads the
// same rows and writes the same value for a given (row, sequence). The run
// seed drives the request stream — which rows, which ops, in what order.
// The POS-tree is shaped by its content, so a per-seed data set would make
// proof sizes (and with them latency, CPU and bytes) differ between seeds
// by more than any change under test.
const dataSeed = 0x5eed5eed

// model is the correctness oracle: per row, the highest value sequence
// number handed to a writer (issued) and the highest one acknowledged
// (acked). Every value is a pure function of (row, sequence), so a
// read result identifies which write it came from and can be checked
// byte for byte. Writers are partitioned by row (row idx belongs to client
// idx mod clients), so one row's writes are issued and acknowledged in
// order and "last acknowledged plus in flight" is the closed interval
// [acked at read start, issued at read end].
type model struct {
	valSize int  // bytes per value; ignored when numeric
	numeric bool // values are decimal strings (the SQL SUM column)
	issued  []atomic.Uint32
	acked   []atomic.Uint32
}

func newModel(rows, spare, valSize int, numeric bool) *model {
	return &model{valSize: valSize, numeric: numeric,
		issued: make([]atomic.Uint32, rows+spare), acked: make([]atomic.Uint32, rows+spare)}
}

// numericBase separates the sequence number from the row tag inside a
// numeric value: value = seq*numericBase + idx%numericBase.
const numericBase = 1000000

// value returns the bytes a write of (idx, seq) carries.
func (m *model) value(idx int, seq uint32) []byte {
	if m.numeric {
		return strconv.AppendUint(nil, uint64(seq)*numericBase+uint64(idx%numericBase), 10)
	}
	b := make([]byte, m.valSize)
	binary.BigEndian.PutUint32(b, seq)
	s := mix64(dataSeed ^ uint64(idx)<<32 ^ uint64(seq))
	for i := 4; i < len(b); i += 8 {
		s = mix64(s)
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], s)
		copy(b[i:], w[:])
	}
	return b
}

// seqOf recovers the sequence number a value claims and reports whether
// the value is exactly what that write carried.
func (m *model) seqOf(idx int, got []byte) (uint32, bool) {
	if m.numeric {
		v, err := strconv.ParseUint(string(got), 10, 64)
		if err != nil || v%numericBase != uint64(idx%numericBase) {
			return 0, false
		}
		return uint32(v / numericBase), true
	}
	if len(got) != m.valSize {
		return 0, false
	}
	seq := binary.BigEndian.Uint32(got)
	return seq, string(got) == string(m.value(idx, seq))
}

// check accepts got as a read of row idx that started when lo was the
// acknowledged sequence number: it must be a genuine value written no
// earlier than lo and no later than the newest write issued so far. A
// replica-served read passes lo = 0: a lagging replica's answer is
// verifiably stale, not wrong.
func (m *model) check(idx int, got []byte, lo uint32) bool {
	seq, ok := m.seqOf(idx, got)
	return ok && seq >= lo && seq <= m.issued[idx].Load()
}

// nextWrite hands out the next sequence number of row idx.
func (m *model) nextWrite(idx int) uint32 { return m.issued[idx].Add(1) }

// ack records that the write of (idx, seq) was acknowledged.
func (m *model) ack(idx int, seq uint32) { m.acked[idx].Store(seq) }
