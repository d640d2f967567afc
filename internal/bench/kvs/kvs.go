// Package kvs implements the paper's "Immutable KVS" comparator
// (Section 6.1): "an immutable key-value store using ForkBase. It is the
// same as Spitz in terms of indexing, except that it does not maintain a
// ledger or provide verifiability."
//
// It is the performance ceiling in Figures 6–8: the same POS-tree index
// over the same content-addressed store, with no block headers, no
// commitment Merkle tree, and no proof machinery.
package kvs

import (
	"sync"

	"spitz/internal/cas"
	"spitz/internal/hashutil"
	"spitz/internal/postree"
)

// KV is one key/value pair in a write batch.
type KV struct {
	Key   []byte
	Value []byte
}

// Store is an immutable key-value store. Every batch produces a new
// snapshot; old snapshots remain readable through their root digests.
// Safe for concurrent use.
type Store struct {
	mu   sync.RWMutex
	tree *postree.Tree
}

// New returns an empty store over the given object store (nil creates a
// fresh in-memory one).
func New(store cas.Store) *Store {
	if store == nil {
		store = cas.NewMemory()
	}
	return &Store{tree: postree.Empty(store)}
}

// Open resumes a store at a previously saved root digest (see Root).
// Only the root node is read eagerly, so opening against a disk-backed
// store is O(1); the rest of the tree faults in per lookup path.
func Open(store cas.Store, root hashutil.Digest) (*Store, error) {
	t, err := postree.Load(store, root)
	if err != nil {
		return nil, err
	}
	return &Store{tree: t}, nil
}

// Root returns the current snapshot's root digest — the handle Open
// resumes from. The zero digest denotes the empty store.
func (s *Store) Root() hashutil.Digest {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tree.Root()
}

// Get returns the value under key.
func (s *Store) Get(key []byte) ([]byte, bool, error) {
	s.mu.RLock()
	t := s.tree
	s.mu.RUnlock()
	return t.Get(key)
}

// Apply writes a batch, producing the next immutable snapshot.
func (s *Store) Apply(batch []KV) error {
	edits := make([]postree.Edit, len(batch))
	for i, kv := range batch {
		edits[i] = postree.Edit{Key: kv.Key, Value: kv.Value}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	nt, err := s.tree.Apply(edits)
	if err != nil {
		return err
	}
	s.tree = nt
	return nil
}

// Scan visits entries with start <= key < end in order.
func (s *Store) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	s.mu.RLock()
	t := s.tree
	s.mu.RUnlock()
	return t.Scan(start, end, func(e postree.Entry) bool { return fn(e.Key, e.Value) })
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tree.Count()
}

// Snapshot returns the current immutable tree, which remains valid as the
// store advances.
func (s *Store) Snapshot() *postree.Tree {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tree
}
