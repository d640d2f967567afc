// Package tso implements a centralized timestamp oracle in the style of
// Percolator's Timestamp Oracle (the paper's reference [41]). Section 5.2
// identifies it as "one approach to achieving serializability ... to rely
// on a global timestamp service" and warns that "the timestamp allocation
// service can become the bottleneck" — which the ablation benchmark
// measures against HLC allocation.
package tso

import "sync/atomic"

// Oracle issues strictly increasing timestamps from a single shared
// counter. Safe for concurrent use; every allocation serializes on one
// cache line, which is precisely the bottleneck the paper describes.
type Oracle struct {
	last atomic.Uint64
}

// New returns an oracle starting above start.
func New(start uint64) *Oracle {
	o := &Oracle{}
	o.last.Store(start)
	return o
}

// Next returns the next timestamp.
func (o *Oracle) Next() uint64 {
	return o.last.Add(1)
}

// Advance raises the oracle to at least v, so the next timestamp issued
// is above v. Recovery uses it to move the oracle past timestamps that
// were already committed before a restart.
func (o *Oracle) Advance(v uint64) {
	for {
		cur := o.last.Load()
		if cur >= v || o.last.CompareAndSwap(cur, v) {
			return
		}
	}
}
