package cas

import (
	"fmt"
	"sync"

	"spitz/internal/hashutil"
	"spitz/internal/posleaf"
)

// Fault wraps a Store and injects failures: lost objects (Get errors) and
// silent corruption (flipped bytes). Structures built over the CAS must
// turn both into explicit errors or verification failures — never into
// silently wrong answers. Tests and the failure-injection suite use it;
// it also documents the storage-fault model the system tolerates.
type Fault struct {
	Inner Store

	mu        sync.Mutex
	lost      map[hashutil.Digest]bool
	corrupted map[hashutil.Digest]int  // byte offset to flip
	copied    map[hashutil.Digest]bool // written with groups copied from a corrupted body
}

// NewFault wraps inner.
func NewFault(inner Store) *Fault {
	return &Fault{
		Inner:     inner,
		lost:      make(map[hashutil.Digest]bool),
		corrupted: make(map[hashutil.Digest]int),
		copied:    make(map[hashutil.Digest]bool),
	}
}

// Lose makes Get fail for the given digest, simulating a lost object.
func (f *Fault) Lose(d hashutil.Digest) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lost[d] = true
}

// Corrupt makes Get return the object with the byte at offset flipped,
// simulating silent media corruption.
func (f *Fault) Corrupt(d hashutil.Digest, offset int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.corrupted[d] = offset
}

// Heal removes all injected faults.
func (f *Fault) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lost = make(map[hashutil.Digest]bool)
	f.corrupted = make(map[hashutil.Digest]int)
	f.copied = make(map[hashutil.Digest]bool)
}

// Put implements Store.
func (f *Fault) Put(domain byte, data []byte) hashutil.Digest {
	return f.Inner.Put(domain, data)
}

// PutOwned implements Store.
func (f *Fault) PutOwned(domain byte, data []byte) hashutil.Digest {
	return f.Inner.PutOwned(domain, data)
}

// Get implements Store, applying injected faults.
func (f *Fault) Get(d hashutil.Digest) ([]byte, error) {
	f.mu.Lock()
	lost := f.lost[d]
	off, corrupt := f.corrupted[d]
	f.mu.Unlock()
	if lost {
		return nil, ErrNotFound
	}
	data, err := f.Inner.Get(d)
	if err != nil {
		return nil, err
	}
	if corrupt {
		mutated := append([]byte(nil), data...)
		if len(mutated) > 0 {
			mutated[off%len(mutated)] ^= 0xFF
		}
		return mutated, nil
	}
	return data, nil
}

// Has implements Store.
func (f *Fault) Has(d hashutil.Digest) bool {
	f.mu.Lock()
	lost := f.lost[d]
	f.mu.Unlock()
	if lost {
		return false
	}
	return f.Inner.Has(d)
}

// Stats implements Store.
func (f *Fault) Stats() Stats { return f.Inner.Stats() }

// CheckGroups implements Store. A body the wrapper corrupted, or copied
// groups from, is never trusted: its table is checked against d and its
// groups hashed. Any other body is the inner store's to judge.
func (f *Fault) CheckGroups(d hashutil.Digest, body []byte, lo, hi int) error {
	f.mu.Lock()
	_, corrupt := f.corrupted[d]
	corrupt = corrupt || f.copied[d]
	f.mu.Unlock()
	if !corrupt {
		return f.Inner.CheckGroups(d, body, lo, hi)
	}
	if Address(hashutil.DomainPOSLeaf, body) != d {
		return fmt.Errorf("%w: %s", ErrCorrupt, d.Short())
	}
	from, to := posleaf.Groups(lo, hi)
	return checkGroups(d, body, from, to)
}

// CopiedGroups implements CopyTracker: a leaf that copied groups from a
// corrupted body is distrusted like it; the inner store is told too.
func (f *Fault) CopiedGroups(d hashutil.Digest, body []byte, at int, src hashutil.Digest, srcBody []byte, pos, n int) {
	f.mu.Lock()
	if _, corrupt := f.corrupted[src]; corrupt || f.copied[src] {
		f.copied[d] = true
	}
	f.mu.Unlock()
	if t, ok := f.Inner.(CopyTracker); ok {
		t.CopiedGroups(d, body, at, src, srcBody, pos, n)
	}
}

// Domain implements DomainResolver by delegation.
func (f *Fault) Domain(d hashutil.Digest) (byte, bool) {
	if r, ok := f.Inner.(DomainResolver); ok {
		return r.Domain(d)
	}
	return 0, false
}
