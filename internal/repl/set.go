package repl

import "spitz/internal/wire"

// Set mirrors every shard of a primary deployment: one Replica per wire
// shard. Served (Router) it has the primary's routing surface with no
// writer — a client (spitz.Dial) works against a replica set exactly as
// against the primary, reads only. A one-shard Set mirrors a
// single-engine primary.
type Set struct {
	replicas []*Replica
}

// NewSet starts one replica per shard of the primary reached by dial
// (shards as reported by its shard map).
func NewSet(dial func() (*wire.Client, error), shards int, opts Options) *Set {
	if shards < 1 {
		shards = 1
	}
	s := &Set{replicas: make([]*Replica, shards)}
	for i := 0; i < shards; i++ {
		o := opts
		if shards == 1 {
			o.Shard = 0 // single-engine primaries accept 0 (and 1)
		} else {
			o.Shard = i + 1
		}
		s.replicas[i] = New(dial, o)
	}
	return s
}

// Shards returns the number of mirrored shards.
func (s *Set) Shards() int { return len(s.replicas) }

// Replica returns the follower mirroring shard i.
func (s *Set) Replica(i int) *Replica { return s.replicas[i] }

// Close stops every follower. They keep serving their verified state.
func (s *Set) Close() {
	for _, r := range s.replicas {
		r.Close()
	}
}

// Status reports every shard's replication state, in shard order.
func (s *Set) Status() []Status {
	out := make([]Status, len(s.replicas))
	for i, r := range s.replicas {
		out[i] = r.Status()
	}
	return out
}

// Router returns the set as a served deployment: every mirrored shard at
// its current engine, and no writer, so every mutation is refused.
func (s *Set) Router() *wire.Router {
	d := &wire.Router{Shards: make([]wire.Shard, len(s.replicas))}
	for i, r := range s.replicas {
		d.Shards[i] = r.Shard()
	}
	return d
}
