// Package skiplist implements a probabilistic skip list keyed by uint64.
//
// Spitz's inverted index uses "a skip list to better support range query"
// for numeric cell values (Section 5, "Inverted Index"): the list maps a
// numeric value to the posting list of universal keys whose cells hold
// that value, and range scans walk the bottom level.
package skiplist

import "math/rand"

const maxLevel = 24

// List maps uint64 keys to values of type V in sorted order. The zero
// value is not usable; create with New. Not safe for concurrent mutation.
type List[V any] struct {
	head *elem[V]
	rng  *rand.Rand
}

type elem[V any] struct {
	key   uint64
	value V
	next  []*elem[V]
}

// New returns an empty list with a deterministic level generator seeded by
// seed (use different seeds to decorrelate lists; determinism keeps tests
// and benchmarks reproducible).
func New[V any](seed int64) *List[V] {
	return &List[V]{
		head: &elem[V]{next: make([]*elem[V], maxLevel)},
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// randomLevel draws a geometric level in [1, maxLevel].
func (l *List[V]) randomLevel() int {
	lvl := 1
	for lvl < maxLevel && l.rng.Intn(4) == 0 {
		lvl++
	}
	return lvl
}

// findPredecessors fills update with the rightmost element before key at
// every level and returns the candidate element (which may equal key).
func (l *List[V]) findPredecessors(key uint64, update *[maxLevel]*elem[V]) *elem[V] {
	x := l.head
	for i := maxLevel - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
		update[i] = x
	}
	return x.next[0]
}

// Get returns the value under key.
func (l *List[V]) Get(key uint64) (V, bool) {
	var update [maxLevel]*elem[V]
	e := l.findPredecessors(key, &update)
	if e != nil && e.key == key {
		return e.value, true
	}
	var zero V
	return zero, false
}

// Put inserts or replaces the value under key, reporting whether the key
// was newly inserted.
func (l *List[V]) Put(key uint64, value V) bool {
	var update [maxLevel]*elem[V]
	e := l.findPredecessors(key, &update)
	if e != nil && e.key == key {
		e.value = value
		return false
	}
	lvl := l.randomLevel()
	ne := &elem[V]{key: key, value: value, next: make([]*elem[V], lvl)}
	for i := 0; i < lvl; i++ {
		ne.next[i] = update[i].next[i]
		update[i].next[i] = ne
	}
	return true
}

// Delete removes key, reporting whether it was present.
func (l *List[V]) Delete(key uint64) bool {
	var update [maxLevel]*elem[V]
	e := l.findPredecessors(key, &update)
	if e == nil || e.key != key {
		return false
	}
	for i := 0; i < len(e.next); i++ {
		if update[i].next[i] == e {
			update[i].next[i] = e.next[i]
		}
	}
	return true
}

// AscendRange calls fn for each key in [start, end) in order; fn returning
// false stops. The end bound is exclusive, so key ^uint64(0) is never
// visited.
func (l *List[V]) AscendRange(start, end uint64, fn func(key uint64, value V) bool) {
	var update [maxLevel]*elem[V]
	e := l.findPredecessors(start, &update)
	for ; e != nil && e.key < end; e = e.next[0] {
		if !fn(e.key, e.value) {
			return
		}
	}
}
