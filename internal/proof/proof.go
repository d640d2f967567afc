// Package proof implements the client side of Spitz verification
// (Section 5.3): clients keep the latest ledger digest locally,
// recalculate digests from received proofs, and compare. Two timing modes
// are supported, mirroring Section 3.2's "Online verification vs Deferred
// verification": online verifies every proof as it arrives; deferred
// queues proofs and verifies them in batch, "which means the transactions
// are verified asynchronously in batch" for higher throughput.
package proof

import (
	"errors"
	"fmt"
	"sync"

	"spitz/internal/hashutil"
	"spitz/internal/ledger"
	"spitz/internal/mtree"
	"spitz/internal/postree"
)

// Errors reported by the verifier.
var (
	// ErrTampered means a proof or digest refresh failed: the data, the
	// history, or the execution was modified.
	ErrTampered = errors.New("proof: verification failed, tampering detected")
)

// Verifier tracks a client's trusted ledger digest and checks query proofs
// against it. Safe for concurrent use.
type Verifier struct {
	mu      sync.Mutex
	digest  ledger.Digest
	trusted bool // false until the first digest is pinned
	pending []ledger.Proof

	verified int64
	deferred int64
	traffic  ProofStats // the counter fields only; cache figures are read live

	nodes nodeCache // verified index nodes, so proofs need not re-ship them
}

// NewVerifier returns a verifier with no pinned digest; the first Advance
// pins trust-on-first-use, after which every refresh must prove
// consistency with the pinned history.
func NewVerifier() *Verifier { return &Verifier{} }

// Digest returns the currently trusted digest (zero before the first
// Advance).
func (v *Verifier) Digest() ledger.Digest {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.digest
}

// Advance moves the trusted digest forward. The consistency proof must
// show the old digest's ledger is a prefix of the new one; otherwise the
// server rewrote history and ErrTampered is returned.
func (v *Verifier) Advance(next ledger.Digest, cons mtree.ConsistencyProof) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.trusted {
		v.digest = next
		v.trusted = true
		return nil
	}
	if next.Height < v.digest.Height {
		return fmt.Errorf("%w: digest went backwards (%d -> %d)", ErrTampered, v.digest.Height, next.Height)
	}
	if cons.OldSize != int(v.digest.Height) || cons.NewSize != int(next.Height) {
		return fmt.Errorf("%w: consistency proof sizes %d/%d do not match digests %d/%d",
			ErrTampered, cons.OldSize, cons.NewSize, v.digest.Height, next.Height)
	}
	if err := cons.Verify(v.digest.Root, next.Root); err != nil {
		return fmt.Errorf("%w: %v", ErrTampered, err)
	}
	v.digest = next
	return nil
}

// VerifyNow checks a proof immediately against the trusted digest (online
// verification).
func (v *Verifier) VerifyNow(p ledger.Proof) error {
	v.mu.Lock()
	d := v.digest
	trusted := v.trusted
	v.mu.Unlock()
	if !trusted {
		return fmt.Errorf("%w: no trusted digest pinned", ErrTampered)
	}
	return v.verify(p, d, nil)
}

// verify is the one place a point or range proof is checked: against d,
// resolving nodes the server left out from path (nil pins nothing), and —
// only once the whole proof has verified — counting it and admitting the
// index nodes it shipped to the node cache. A rejected proof leaves the
// verifier exactly as it was.
func (v *Verifier) verify(p ledger.Proof, d ledger.Digest, path *postree.Path) error {
	if err := p.VerifyPath(d, path); err != nil {
		return fmt.Errorf("%w: %v", ErrTampered, err)
	}
	bytes := blockBytes(p.Inclusion)
	var nodes [][]byte
	switch {
	case p.Point != nil:
		nodes = p.Point.Nodes
		bytes += len(p.Point.Key) + len(p.Point.Value)
	case p.Range != nil:
		nodes = p.Range.Nodes
		bytes += len(p.Range.Start) + len(p.Range.End)
	}
	v.accept(p.Header.CellRoot, path, 1, len(nodes), bytes+bodyBytes(nodes))
	return nil
}

// accept records a proof that verified: reads counted, its traffic —
// node slots that arrived, how many of them as patches, pinned nodes the
// walk used instead, bytes of proof material as it arrived (headers and
// digests at their wire size, no framing) — added to the counters, the
// index nodes it shipped admitted to the cache and the pinned ones it
// superseded dropped.
func (v *Verifier) accept(root hashutil.Digest, path *postree.Path, reads, shipped, bytes int) {
	elided, patched := 0, 0
	if path != nil {
		elided, patched = path.Elided(), path.Patched
		v.nodes.admit(root, path.Shipped, path.Superseded())
	}
	mNodesShipped.Add(uint64(shipped))
	mNodesPatched.Add(uint64(patched))
	mNodesElided.Add(uint64(elided))
	mProofBytes.Add(uint64(bytes))
	v.mu.Lock()
	v.verified += int64(reads)
	v.traffic.NodesShipped += int64(shipped)
	v.traffic.NodesPatched += int64(patched)
	v.traffic.NodesElided += int64(elided)
	v.traffic.ProofBytes += int64(bytes)
	v.mu.Unlock()
}

// blockBytes is the block binding every proof carries: header and
// inclusion path.
func blockBytes(inc mtree.InclusionProof) int {
	return ledger.HeaderWireLen + len(inc.Path)*hashutil.DigestSize
}

func bodyBytes(nodes [][]byte) int {
	n := 0
	for _, body := range nodes {
		n += len(body)
	}
	return n
}

// PathTo pins the verified index nodes this verifier already holds on
// the search path towards key (a POS-tree key, e.g. cellstore.CellPrefix)
// under the last cell root it verified a proof against — where it lacks
// the node the path runs through, the older version of that node it holds,
// for the server to patch against. The caller sends path.Have() with the
// read and hands the path back to VerifyPoint; the result is never nil,
// and holds nothing on a cold verifier.
func (v *Verifier) PathTo(key []byte) *postree.Path { return v.nodes.pathTo(key) }

// PathFor is PathTo for a batch of reads — the receipts of an audit
// flush, the obligations of a query plan, one range scan: it pins the
// held nodes on every point query's search path and in every range
// query's scan. The path goes back to VerifyBatch (or, for a single range
// read answered with a ledger.Proof, VerifyPoint).
func (v *Verifier) PathFor(queries []ledger.BatchQuery) *postree.Path {
	return v.nodes.pathFor(queries)
}

// VerifyPoint checks a point- or range-read proof whose server was told
// which nodes the verifier holds (path, from PathTo or PathFor) and may
// have left them out. d is the digest the server produced the proof at:
// the trusted digest, or an older one the caller has shown to be a prefix
// of it (exactly VerifyAsOf's contract). Index nodes the proof did ship
// are cached for later reads once the proof has verified.
func (v *Verifier) VerifyPoint(p ledger.Proof, d ledger.Digest, path *postree.Path) error {
	return v.verifyAsOf(p, d, path)
}

func (v *Verifier) verifyAsOf(p ledger.Proof, d ledger.Digest, path *postree.Path) error {
	if err := v.coveredBy(d); err != nil {
		return err
	}
	return v.verify(p, d, path)
}

// coveredBy refuses digests that could not possibly be prefixes of the
// trusted ledger: any digest before trust is pinned, and taller ones after.
func (v *Verifier) coveredBy(d ledger.Digest) error {
	v.mu.Lock()
	cur := v.digest
	trusted := v.trusted
	v.mu.Unlock()
	if !trusted {
		return fmt.Errorf("%w: no trusted digest pinned", ErrTampered)
	}
	if d.Height > cur.Height {
		return fmt.Errorf("%w: digest height %d beyond trusted %d", ErrTampered, d.Height, cur.Height)
	}
	return nil
}

// VerifyAsOf checks a proof against an older digest d that the caller
// has shown — via a verified consistency proof — to be a prefix of the
// trusted ledger. Under write churn, a query response's proof can be
// for a digest the client's trust has already moved past; proving the
// prefix relation and verifying against d keeps the stale-but-honest
// result usable instead of forcing an endless refetch race. The caller
// is responsible for the prefix check; this method only refuses digests
// that could not possibly be prefixes (taller than the trusted ledger).
func (v *Verifier) VerifyAsOf(p ledger.Proof, d ledger.Digest) error {
	return v.verifyAsOf(p, d, nil)
}

// VerifyBatch checks an aggregated batch proof — the server half of a
// deferred-audit flush or of a verified query — the way VerifyPoint
// checks a single read: against d, the trusted digest or an older one
// the caller has shown to be a prefix of it (query responses are proven
// at the digest the server executed at, which under write churn can trail
// the client's already-advanced trust), resolving the nodes the server
// left out from path (from PathFor; nil pins nothing). On success every
// covered read counts as verified, the proof's traffic is counted like a
// point proof's, and the index nodes it shipped are cached.
func (v *Verifier) VerifyBatch(p ledger.BatchProof, d ledger.Digest, reads int, path *postree.Path) error {
	if err := v.coveredBy(d); err != nil {
		return err
	}
	if err := p.VerifyPath(d, path); err != nil {
		return fmt.Errorf("%w: %v", ErrTampered, err)
	}
	shipped := 0
	bytes := blockBytes(p.Inclusion)
	if p.Points != nil {
		shipped += len(p.Points.Nodes)
		bytes += bodyBytes(p.Points.Keys) + bodyBytes(p.Points.Values) + bodyBytes(p.Points.Nodes)
	}
	for i := range p.Ranges {
		r := &p.Ranges[i]
		shipped += len(r.Nodes)
		bytes += len(r.Start) + len(r.End) + bodyBytes(r.Nodes)
	}
	v.accept(p.Header.CellRoot, path, reads, shipped, bytes)
	return nil
}

// VerifyBlock checks that a block header is part of the ledger the
// trusted digest commits to. Clients use it to verify *writes*: the block
// exists, and its recorded write-set hash can then be compared against the
// locally computed one (batch-level write verification, Section 5.3).
func (v *Verifier) VerifyBlock(header ledger.BlockHeader, inc mtree.InclusionProof) error {
	v.mu.Lock()
	d := v.digest
	trusted := v.trusted
	v.mu.Unlock()
	if !trusted {
		return fmt.Errorf("%w: no trusted digest pinned", ErrTampered)
	}
	if header.Height >= d.Height || inc.TreeSize != int(d.Height) || inc.Index != int(header.Height) {
		return fmt.Errorf("%w: block %d not covered by digest %d", ErrTampered, header.Height, d.Height)
	}
	if err := inc.Verify(d.Root, mtree.LeafHash(header.Encode())); err != nil {
		return fmt.Errorf("%w: %v", ErrTampered, err)
	}
	v.mu.Lock()
	v.verified++
	v.mu.Unlock()
	return nil
}

// NoteDeferred records n reads accepted optimistically (deferred-audit
// receipts) so Stats reflects the deferred volume.
func (v *Verifier) NoteDeferred(n int) {
	v.mu.Lock()
	v.deferred += int64(n)
	v.mu.Unlock()
}

// Defer queues a proof for later batch verification.
func (v *Verifier) Defer(p ledger.Proof) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.pending = append(v.pending, p)
	v.deferred++
}

// Pending returns the number of queued proofs.
func (v *Verifier) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.pending)
}

// Flush verifies every queued proof against the trusted digest and clears
// the queue. It returns the number verified; on the first failure it stops
// and reports which proof failed.
func (v *Verifier) Flush() (int, error) {
	v.mu.Lock()
	batch := v.pending
	v.pending = nil
	d := v.digest
	trusted := v.trusted
	v.mu.Unlock()
	if !trusted && len(batch) > 0 {
		return 0, fmt.Errorf("%w: no trusted digest pinned", ErrTampered)
	}
	for i, p := range batch {
		if err := p.Verify(d); err != nil {
			return i, fmt.Errorf("%w: deferred proof %d: %v", ErrTampered, i, err)
		}
	}
	v.mu.Lock()
	v.verified += int64(len(batch))
	v.mu.Unlock()
	return len(batch), nil
}

// Stats reports how many proofs were verified and deferred in total.
func (v *Verifier) Stats() (verified, deferred int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.verified, v.deferred
}

// ProofStats is what the point, range and batch proofs a Verifier checked
// cost, and what its node cache holds. The same traffic counters are summed
// over all verifiers in the process's metrics registry
// (spitz_client_proof_*, spitz_client_nodecache_*).
type ProofStats struct {
	NodesShipped int64 // proof nodes that arrived, as bodies or as patches, and were hashed
	NodesPatched int64 // of those, index nodes that arrived as a patch against a cached version
	NodesElided  int64 // nodes the server left out and the node cache answered instead
	ProofBytes   int64 // proof material received: node bodies and patches, keys, values, bounds, inclusion path, header
	CacheEntries int   // verified index nodes currently cached
	CacheBytes   int   // the memory they hold: bodies plus decoded entries (at most 2 MiB)
}

// ProofStats reports the verifier's proof traffic and cache occupancy.
func (v *Verifier) ProofStats() ProofStats {
	v.mu.Lock()
	st := v.traffic
	v.mu.Unlock()
	st.CacheEntries, st.CacheBytes = v.nodes.size()
	return st
}
