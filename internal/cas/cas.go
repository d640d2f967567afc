// Package cas implements the content-addressed store that substitutes for
// ForkBase's physical storage layer.
//
// Every immutable object in the system — index nodes, ledger blocks, value
// chunks — is stored exactly once, keyed by its content digest. Structural
// sharing between versions of an index is therefore automatic: when a new
// ledger block rewrites only the O(log n) nodes on a mutation path, every
// untouched node is found by digest and costs no additional storage. This
// is the deduplication mechanism behind Figure 1 of the paper and the
// "nodes between instances can be shared" property of Section 6.1.
package cas

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"spitz/internal/hashutil"
	"spitz/internal/posleaf"
)

// ErrNotFound is returned by Get when no object has the requested digest.
var ErrNotFound = errors.New("cas: object not found")

// Store is an immutable, deduplicating object store. Implementations must
// be safe for concurrent use.
type Store interface {
	// Put stores data under the given domain, returning its digest. Putting
	// identical content is idempotent and does not grow the store. The
	// store keeps a copy: the caller may reuse or modify data afterwards.
	Put(domain byte, data []byte) hashutil.Digest
	// PutOwned is Put for a buffer the caller gives up: the store keeps
	// data itself, not a copy, so the caller — and anything its memory
	// aliases — must never modify it again (reading it stays fine). The
	// writer of a freshly encoded body uses it; a caller whose bytes alias
	// memory it does not own uses Put.
	PutOwned(domain byte, data []byte) hashutil.Digest
	// Get returns the object with the given digest, or ErrNotFound. The
	// returned slice must not be modified.
	Get(d hashutil.Digest) ([]byte, error)
	// Has reports whether an object with the given digest exists.
	Has(d hashutil.Digest) bool
	// Stats returns storage accounting for the store.
	Stats() Stats
	// CheckGroups checks the groups of the stored POS-tree leaf d, whose
	// body Get returned, that hold its entries lo through hi. Get binds a
	// leaf's table to d; no entry is returned, shipped or hashed into a new
	// commitment before its group is checked. What the store vouches for is
	// not hashed; a mismatch is ErrCorrupt.
	CheckGroups(d hashutil.Digest, body []byte, lo, hi int) error
}

// Stats describes the physical utilization of a Store.
type Stats struct {
	// Objects is the number of distinct objects stored.
	Objects int
	// LogicalBytes counts every Put'ed payload, including duplicates; it is
	// what a store without deduplication would hold.
	LogicalBytes int64
	// PhysicalBytes counts each distinct object once; it is what the
	// deduplicating store actually holds.
	PhysicalBytes int64
	// DedupHits is the number of Puts that found their content already
	// present.
	DedupHits int64
}

// SavingsRatio returns LogicalBytes/PhysicalBytes (1.0 = no savings).
func (s Stats) SavingsRatio() float64 {
	if s.PhysicalBytes == 0 {
		return 1
	}
	return float64(s.LogicalBytes) / float64(s.PhysicalBytes)
}

// Address returns the digest an object is stored and fetched under. It
// is the hash of the object under its domain tag — except for a POS-tree
// leaf, whose address is its entry count and the root of a hash tree over
// its entries (see internal/posleaf), so that a proof can ship a few
// entries of a leaf and still hash to the address its parent holds. Put
// trusts the writer to have built the table of group roots the address is
// computed from; a leaf's groups are checked where they are used
// (Store.CheckGroups). A body stored under the leaf domain that is not a
// leaf is addressed like any other object.
func Address(domain byte, data []byte) hashutil.Digest {
	if domain == hashutil.DomainPOSLeaf {
		if l, err := posleaf.Parse(data); err == nil {
			return l.Digest()
		}
	}
	return hashutil.Sum(domain, data)
}

// CopyTracker is implemented by stores that hold leaf bodies they do not
// vouch for whole (Disk, Fault). A leaf written with groups copied by root
// (posleaf.Writer.Copy) is vouched for in those groups no more than its
// source: a damaged group propagates under its genuine root and fails the
// first check of it in the new leaf.
type CopyTracker interface {
	// CopiedGroups says that leaf d, just stored as body, took its n
	// entries from position at group by group from those of src (whose body
	// Get returned as srcBody) from position pos.
	CopiedGroups(d hashutil.Digest, body []byte, at int, src hashutil.Digest, srcBody []byte, pos, n int)
}

// checkGroups hashes groups [from, to) of the stored leaf body d addresses
// against its table.
func checkGroups(d hashutil.Digest, body []byte, from, to int) error {
	l, err := posleaf.Parse(body)
	if err == nil {
		err = l.CheckGroups(from, to)
	}
	if err != nil {
		return fmt.Errorf("%w: %s groups %d–%d", ErrCorrupt, d.Short(), from, to-1)
	}
	return nil
}

// Memory is an in-memory Store implementation.
type Memory struct {
	mu      sync.RWMutex
	objects map[hashutil.Digest][]byte
	domains map[hashutil.Digest]byte
	stats   Stats
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{
		objects: make(map[hashutil.Digest][]byte),
		domains: make(map[hashutil.Digest]byte),
	}
}

// Put implements Store.
func (m *Memory) Put(domain byte, data []byte) hashutil.Digest {
	return m.put(domain, data, false)
}

// PutOwned implements Store.
func (m *Memory) PutOwned(domain byte, data []byte) hashutil.Digest {
	return m.put(domain, data, true)
}

// put stores data — itself when owned, else a copy, made only once the
// object is known to be new.
func (m *Memory) put(domain byte, data []byte, owned bool) hashutil.Digest {
	d := Address(domain, data)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.LogicalBytes += int64(len(data))
	if _, ok := m.objects[d]; ok {
		m.stats.DedupHits++
		return d
	}
	if !owned {
		data = bytes.Clone(data)
	}
	m.objects[d] = data
	m.domains[d] = domain
	m.stats.Objects++
	m.stats.PhysicalBytes += int64(len(data))
	return d
}

// Domain implements DomainResolver.
func (m *Memory) Domain(d hashutil.Digest) (byte, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	dom, ok := m.domains[d]
	return dom, ok
}

// Get implements Store.
func (m *Memory) Get(d hashutil.Digest) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	obj, ok := m.objects[d]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, d.Short())
	}
	return obj, nil
}

// Has implements Store.
func (m *Memory) Has(d hashutil.Digest) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.objects[d]
	return ok
}

// Stats implements Store.
func (m *Memory) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.stats
}

// CheckGroups implements Store: a memory store holds only bodies written
// by this process or verified whole.
func (m *Memory) CheckGroups(hashutil.Digest, []byte, int, int) error { return nil }

// Delete removes an object. It exists for garbage collection of unpinned
// versions; tamper evidence is unaffected because digests of retained
// structures still commit to the deleted object's content.
func (m *Memory) Delete(d hashutil.Digest) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if obj, ok := m.objects[d]; ok {
		m.stats.Objects--
		m.stats.PhysicalBytes -= int64(len(obj))
		delete(m.objects, d)
		delete(m.domains, d)
	}
}

// DomainBytes is per-domain I/O accounting: bytes read by Get and bytes
// accepted by Put for one hashutil domain tag.
type DomainBytes struct {
	Read    int64
	Written int64
}

// Counting wraps a Store and counts operations; the experiment harness uses
// it to report I/O amplification, broken down per domain tag.
type Counting struct {
	Inner Store

	mu       sync.Mutex
	puts     int64
	gets     int64
	perDom   map[byte]*DomainBytes
	getOther int64 // Get bytes whose domain the inner store cannot resolve
}

// NewCounting wraps inner in an operation counter.
func NewCounting(inner Store) *Counting {
	return &Counting{Inner: inner, perDom: make(map[byte]*DomainBytes)}
}

func (c *Counting) domLocked(domain byte) *DomainBytes {
	db := c.perDom[domain]
	if db == nil {
		db = &DomainBytes{}
		c.perDom[domain] = db
	}
	return db
}

// Put implements Store.
func (c *Counting) Put(domain byte, data []byte) hashutil.Digest {
	c.countPut(domain, len(data))
	return c.Inner.Put(domain, data)
}

// PutOwned implements Store: counted like Put, and the buffer is handed on.
func (c *Counting) PutOwned(domain byte, data []byte) hashutil.Digest {
	c.countPut(domain, len(data))
	return c.Inner.PutOwned(domain, data)
}

func (c *Counting) countPut(domain byte, n int) {
	c.mu.Lock()
	c.puts++
	c.domLocked(domain).Written += int64(n)
	c.mu.Unlock()
}

// Get implements Store. When the inner store implements DomainResolver,
// read bytes are attributed to the object's domain.
func (c *Counting) Get(d hashutil.Digest) ([]byte, error) {
	c.mu.Lock()
	c.gets++
	c.mu.Unlock()
	data, err := c.Inner.Get(d)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if r, ok := c.Inner.(DomainResolver); ok {
		if dom, ok := r.Domain(d); ok {
			c.domLocked(dom).Read += int64(len(data))
		} else {
			c.getOther += int64(len(data))
		}
	} else {
		c.getOther += int64(len(data))
	}
	c.mu.Unlock()
	return data, nil
}

// Has implements Store.
func (c *Counting) Has(d hashutil.Digest) bool { return c.Inner.Has(d) }

// Stats implements Store.
func (c *Counting) Stats() Stats { return c.Inner.Stats() }

// CheckGroups implements Store by delegation.
func (c *Counting) CheckGroups(d hashutil.Digest, body []byte, lo, hi int) error {
	return c.Inner.CheckGroups(d, body, lo, hi)
}

// CopiedGroups implements CopyTracker by delegation.
func (c *Counting) CopiedGroups(d hashutil.Digest, body []byte, at int, src hashutil.Digest, srcBody []byte, pos, n int) {
	if t, ok := c.Inner.(CopyTracker); ok {
		t.CopiedGroups(d, body, at, src, srcBody, pos, n)
	}
}

// Domain implements DomainResolver by delegation.
func (c *Counting) Domain(d hashutil.Digest) (byte, bool) {
	if r, ok := c.Inner.(DomainResolver); ok {
		return r.Domain(d)
	}
	return 0, false
}

// Ops returns the number of Put and Get calls seen so far.
func (c *Counting) Ops() (puts, gets int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.puts, c.gets
}

// PerDomain returns a copy of the per-domain byte accounting. Get bytes
// that could not be attributed (inner store is not a DomainResolver) are
// returned under the second value.
func (c *Counting) PerDomain() (map[byte]DomainBytes, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[byte]DomainBytes, len(c.perDom))
	for k, v := range c.perDom {
		out[k] = *v
	}
	return out, c.getOther
}
