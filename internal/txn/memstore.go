package txn

import (
	"sort"
	"sync"
)

// MemStore is an in-memory multi-version Store used by tests and by the
// concurrency-control ablation benchmarks, where ledger I/O would mask the
// scheduler's behaviour.
type MemStore struct {
	mu       sync.RWMutex
	ts       TimestampSource
	versions map[string][]memVersion
}

type memVersion struct {
	version uint64
	value   []byte
	deleted bool
}

// NewMemStore returns an empty store drawing commit versions from ts,
// which should be the source its Manager draws snapshots from.
func NewMemStore(ts TimestampSource) *MemStore {
	return &MemStore{ts: ts, versions: make(map[string][]memVersion)}
}

// ReadLatest implements Store.
func (s *MemStore) ReadLatest(key []byte, asOf uint64) ([]byte, uint64, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs := s.versions[string(key)]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].version > asOf })
	if i == 0 {
		return nil, 0, false, nil
	}
	v := vs[i-1]
	if v.deleted {
		return nil, v.version, false, nil
	}
	return v.value, v.version, true, nil
}

// Commit implements Store. The statement is not kept, and the writes are
// durable once applied.
func (s *MemStore) Commit(_ string, writes []Write) (uint64, func() error, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	version := s.ts.Next()
	for _, w := range writes {
		s.versions[string(w.Key)] = append(s.versions[string(w.Key)],
			memVersion{version: version, value: w.Value, deleted: w.Delete})
	}
	return version, func() error { return nil }, nil
}

// VersionCount reports the number of stored versions of a key.
func (s *MemStore) VersionCount(key []byte) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.versions[string(key)])
}
