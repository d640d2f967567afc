// Package workload generates the paper's evaluation workloads
// (Section 6.2): "The number of records, which consist of different
// key-value pairs, vary from 10,000 to 1,280,000. The length of the key
// ranges from 5 to 12 bytes while the size of the value is 20 bytes" —
// plus the Figure 1 wiki-page versioning workload ("an immutable database
// stores 10 WIKI pages of 16 KB each initially. We create a new version
// when updating a page").
package workload

import (
	"fmt"
	"math/rand"
)

// PaperSizes are the database sizes of Figures 6–8: 10k to 1.28M records.
var PaperSizes = []int{10_000, 20_000, 40_000, 80_000, 160_000, 320_000, 640_000, 1_280_000}

// KeyValue is one record.
type KeyValue struct {
	Key   []byte
	Value []byte
}

const keyAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

// Records generates n unique records with 5–12 byte keys and 20-byte
// values, deterministically from seed.
func Records(n int, seed int64) []KeyValue {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	out := make([]KeyValue, 0, n)
	for len(out) < n {
		klen := 5 + rng.Intn(8) // 5..12
		key := make([]byte, klen)
		for i := range key {
			key[i] = keyAlphabet[rng.Intn(len(keyAlphabet))]
		}
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		value := make([]byte, 20)
		rng.Read(value)
		out = append(out, KeyValue{Key: key, Value: value})
	}
	return out
}

// Batches splits records into write batches of the given size.
func Batches(records []KeyValue, batch int) [][]KeyValue {
	if batch <= 0 {
		batch = 1000
	}
	var out [][]KeyValue
	for len(records) > 0 {
		n := batch
		if n > len(records) {
			n = len(records)
		}
		out = append(out, records[:n])
		records = records[n:]
	}
	return out
}

// ReadSequence returns ops keys sampled uniformly from records.
func ReadSequence(records []KeyValue, ops int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, ops)
	for i := range out {
		out[i] = records[rng.Intn(len(records))].Key
	}
	return out
}

// UpdateSequence returns ops records whose keys exist but whose values are
// fresh (the write-only workload updates the loaded database).
func UpdateSequence(records []KeyValue, ops int, seed int64) []KeyValue {
	rng := rand.New(rand.NewSource(seed))
	out := make([]KeyValue, ops)
	for i := range out {
		v := make([]byte, 20)
		rng.Read(v)
		out[i] = KeyValue{Key: records[rng.Intn(len(records))].Key, Value: v}
	}
	return out
}

// Range is one range-query interval [Lo, Hi) over the key space.
type Range struct {
	Lo, Hi []byte
	Count  int // number of records the interval covers
}

// Ranges returns ops range intervals with the given selectivity over the
// record set (Section 6.2.2 fixes selectivity at 0.1%). sortedKeys must be
// the record keys in sorted order.
func Ranges(sortedKeys [][]byte, selectivity float64, ops int, seed int64) []Range {
	rng := rand.New(rand.NewSource(seed))
	span := int(float64(len(sortedKeys)) * selectivity)
	if span < 1 {
		span = 1
	}
	out := make([]Range, ops)
	for i := range out {
		start := rng.Intn(len(sortedKeys) - span)
		out[i] = Range{Lo: sortedKeys[start], Hi: sortedKeys[start+span], Count: span}
	}
	return out
}

// WikiPage is one versioned document of the Figure 1 workload.
type WikiPage struct {
	Title string
	Body  []byte
}

// WikiPages generates pages of the given size.
func WikiPages(pages, size int, seed int64) []WikiPage {
	rng := rand.New(rand.NewSource(seed))
	out := make([]WikiPage, pages)
	for i := range out {
		body := make([]byte, size)
		rng.Read(body)
		out[i] = WikiPage{Title: fmt.Sprintf("Page-%02d", i), Body: body}
	}
	return out
}

// EditPage mutates a random small region of a page body in place,
// returning the edited copy — the "updating a page" step that creates a
// new version. Edits average ~1% of the page.
func EditPage(page []byte, rng *rand.Rand) []byte {
	out := append([]byte(nil), page...)
	editLen := 1 + rng.Intn(len(out)/64)
	off := rng.Intn(len(out) - editLen)
	patch := make([]byte, editLen)
	rng.Read(patch)
	copy(out[off:], patch)
	return out
}

// Zipf returns ops key indexes with a skewed (hot-key) distribution over n
// keys, for the concurrency-control ablation.
func Zipf(n, ops int, skew float64, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	if skew <= 1.0 {
		skew = 1.01
	}
	z := rand.NewZipf(rng, skew, 1, uint64(n-1))
	out := make([]int, ops)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}
