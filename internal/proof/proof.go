// Package proof is Spitz's verifier (Section 5.3), the whole of what a
// client trusts: clients keep the latest ledger digest locally,
// recalculate digests from received proofs, and compare. It holds every
// type a client decodes — digests, block headers, the ledger Proof with
// its POS-tree point and range proofs, cells — with their decoders and
// every check run on them, and imports nothing of the module but the pure
// leaf packages binenc, hashutil, posleaf and mtree. The ledger, the
// POS-tree and the cell store build what it checks with its types.
//
// Every proof a client is sent — one read's or a batch's, both a Proof —
// is checked by Verifier.Check, which reads each answer off its own walk
// of the client's queries; when it is checked, per read or in batch
// (Section 3.2's online vs deferred verification), is the caller's choice.
// DESIGN.md's "The verifier's contract" says what each check guarantees.
package proof

import (
	"errors"
	"fmt"
	"sync"

	"spitz/internal/hashutil"
	"spitz/internal/mtree"
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
	digest  Digest
	trusted bool    // false until the first digest is pinned
	next    *Digest // while AdvanceWith's check runs: where trust goes if it passes
	// head is the verified header of headAt's head block: while headAt is
	// trusted, a read's proof may leave that block's binding out (Pin).
	head   BlockHeader
	headAt Digest

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
func (v *Verifier) Digest() Digest {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.digest
}

// Advance moves the trusted digest forward. The consistency proof must
// show the old digest's ledger is a prefix of the new one; otherwise the
// server rewrote history and ErrTampered is returned.
func (v *Verifier) Advance(next Digest, cons mtree.ConsistencyProof) error {
	return v.AdvanceWith(next, &cons, nil)
}

// AdvanceWith is Advance for an answer proven at next or a prefix of it:
// cons is checked (any digest extends no trust, or the empty ledger's),
// then check (nil: none, and the lock is held throughout) verifies it
// through Check, which admits digests up to next meanwhile, and
// only then, if trust has not moved since, does it move to next. Callers
// serialize advances that check (a client does, per shard).
func (v *Verifier) AdvanceWith(next Digest, cons *mtree.ConsistencyProof, check func() error) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	base := v.digest
	if v.trusted && base.Height > 0 { // a digest that went backwards has no proof either
		if err := CheckPrefix(base, next, cons); err != nil {
			return err
		}
	}
	if check != nil {
		v.next = &next
		v.mu.Unlock()
		err := check()
		v.mu.Lock()
		v.next = nil
		if err != nil {
			return err
		}
		if v.digest != base { // cons says nothing about the new trust
			return errors.New("proof: the trusted digest moved while this advance was checked")
		}
	}
	v.digest, v.trusted = next, true
	return nil
}

// CheckPrefix is the one consistency check: cons must be a proof between
// exactly old's and next's heights that old's ledger is a prefix of next's.
// A proof the server left out (nil) fails like a wrong one.
func CheckPrefix(old, next Digest, cons *mtree.ConsistencyProof) error {
	if cons == nil {
		return fmt.Errorf("%w: server omitted consistency proof", ErrTampered)
	}
	if cons.OldSize != int(old.Height) || cons.NewSize != int(next.Height) {
		return fmt.Errorf("%w: consistency proof sizes %d/%d do not match digests %d/%d",
			ErrTampered, cons.OldSize, cons.NewSize, old.Height, next.Height)
	}
	if err := cons.Verify(old.Root, next.Root); err != nil {
		return fmt.Errorf("%w: digest %d is not a prefix of digest %d: %v", ErrTampered, old.Height, next.Height, err)
	}
	return nil
}

// VerifyNow checks a prover-built proof against the trusted digest, as
// one read with nothing pinned: its block bound (bind), then each
// sub-proof's own keys and bounds walked and what it carries compared with
// what the walk reaches (Proof.VerifyCells; its range rows are then
// filled). It checks a proof, not the answer to a question: that is Check.
func (v *Verifier) VerifyNow(p Proof) error {
	d := v.Digest()
	if err := v.bind(&p, d, &Pin{}); err != nil {
		return err
	}
	if err := p.VerifyCells(nil); err != nil {
		return fmt.Errorf("%w: %v", ErrTampered, err)
	}
	v.accept(&p, d, nil, 1)
	return nil
}

// accept records a proof p that verified against d: reads counted, its
// traffic — node slots that arrived, how many of them as patches, pinned
// nodes the walk used instead, bytes of proof material as it arrived
// (headers and digests at their wire size, no framing) — added to the
// counters, the index nodes it shipped admitted to the cache and the
// pinned ones it superseded dropped, a header it bound to d's head kept.
func (v *Verifier) accept(p *Proof, d Digest, path *Path, reads int) {
	shipped, bytes := 0, 0
	if !p.Unbound { // the binding counts only where it travelled
		bytes = HeaderWireLen + len(p.Inclusion.Path)*hashutil.DigestSize
	}
	if p.Point != nil {
		shipped += len(p.Point.Nodes)
		bytes += bodyBytes(p.Point.Nodes)
	}
	for i := range p.Ranges {
		shipped += len(p.Ranges[i].Nodes)
		bytes += bodyBytes(p.Ranges[i].Nodes)
	}
	elided, patched := 0, 0
	if path != nil {
		elided, patched = path.Elided(), path.Patched
		v.nodes.admit(p.Header.CellRoot, path.Shipped, path.Superseded())
	}
	st := ProofStats{NodesShipped: int64(shipped), NodesPatched: int64(patched), NodesElided: int64(elided), ProofBytes: int64(bytes)}
	if p.Unbound {
		st.BindingsElided = 1
	}
	Count(st)
	v.mu.Lock()
	if !p.Unbound && p.Header.Height+1 == d.Height {
		v.head, v.headAt = p.Header, d
	}
	v.verified += int64(reads)
	v.traffic.NodesShipped += st.NodesShipped
	v.traffic.NodesPatched += st.NodesPatched
	v.traffic.NodesElided += st.NodesElided
	v.traffic.ProofBytes += st.ProofBytes
	v.traffic.BindingsElided += st.BindingsElided
	v.mu.Unlock()
}

func bodyBytes(nodes [][]byte) int {
	n := 0
	for _, body := range nodes {
		n += len(body)
	}
	return n
}

// Pin is what one read's request says the verifier holds, kept as it was
// until the response is verified: the verified index nodes on the read's
// way (Path), and the trusted digest with, when Held, the verified header
// of its head block, so that a proof at that block may travel without
// its binding.
type Pin struct {
	*Path
	Trusted Digest
	Head    BlockHeader
	Held    bool
}

// PinFor pins what the verifier holds for the queries of one read — a
// point read's key, a range scan, a query plan's obligations, an audit
// flush's receipts — for the caller to hand back to Check: the held
// nodes on every point query's search path and in every range query's
// scan, the trusted digest and its head block's header.
func (v *Verifier) PinFor(queries []BatchQuery) *Pin {
	pin := &Pin{Path: v.nodes.pathFor(queries)}
	v.mu.Lock()
	if pin.Trusted = v.digest; v.digest.Height > 0 && v.headAt == v.digest {
		pin.Head, pin.Held = v.head, true
	}
	v.mu.Unlock()
	return pin
}

// bind binds p's block to d — the trusted digest or an older one the
// caller has shown to be a prefix of it (a response is proven at the
// digest the server served it at, which under write churn can trail the
// client's already-advanced trust): through p's own header and inclusion
// path, or, for a proof that travelled without them, the header pin holds
// for exactly that digest, which p then takes. Digests that could not
// possibly be prefixes of the trusted ledger, or of the one an advance is
// checking, are refused: any before trust is pinned, taller ones after.
func (v *Verifier) bind(p *Proof, d Digest, pin *Pin) error {
	v.mu.Lock()
	cur, trusted := v.digest, v.trusted
	if v.next != nil {
		cur, trusted = *v.next, true
	}
	v.mu.Unlock()
	switch {
	case !trusted:
		return fmt.Errorf("%w: no trusted digest pinned", ErrTampered)
	case d.Height > cur.Height:
		return fmt.Errorf("%w: digest height %d beyond trusted %d", ErrTampered, d.Height, cur.Height)
	}
	switch {
	case !p.Unbound:
		if err := VerifyBlock(p.Header, p.Inclusion, d); err != nil {
			return fmt.Errorf("%w: %v", ErrTampered, err)
		}
	case !pin.Held || d != pin.Trusted:
		return fmt.Errorf("%w: a proof at digest %d left its block binding out, and the verifier holds no header for that digest", ErrTampered, d.Height)
	default:
		p.Header = pin.Head
	}
	return nil
}

// Check is what a client runs on a proof it was sent — every proof a
// read rests on, eager or audited, point, range, SELECT or audit flush —
// and the one place a proof meets the question it answers. The block is
// bound to d (bind), then each of the client's own queries is walked from
// the bound cell root (Proof.Cells), and the answers are the live cells
// that walk reaches: nothing is read from a value, key or bound the proof
// claims, and a proof of another question — another key's, a narrower
// range that silently omits rows — does not reach what the query asks.
// Only once the whole proof has verified are the reads counted, its
// traffic counted, the index nodes it shipped cached and the pinned ones
// it superseded dropped (accept): every failure is ErrTampered and leaves
// the verifier as it was. A nil pin pins nothing.
func (v *Verifier) Check(p *Proof, d Digest, queries []BatchQuery, reads int, pin *Pin) ([][]Cell, error) {
	return v.CheckClaims(p, d, queries, reads, pin, nil)
}

// CheckClaims is Check for an answer the server also states, as a SELECT's
// cells, which seed its obligations: each claimed cell must be one the
// walk reaches live, or the response lies though its proof is sound.
func (v *Verifier) CheckClaims(p *Proof, d Digest, queries []BatchQuery, reads int, pin *Pin, claimed []Cell) ([][]Cell, error) {
	if p == nil {
		return nil, fmt.Errorf("%w: server omitted proof", ErrTampered)
	}
	if pin == nil {
		pin = &Pin{}
	}
	bound := *p // an unbound proof takes the pinned header; the caller's stays as it came
	if err := v.bind(&bound, d, pin); err != nil {
		return nil, err
	}
	live, err := bound.Cells(queries, pin.Path)
	if err == nil && len(claimed) > 0 {
		proven := make(map[string]string)
		for _, cs := range live {
			for _, c := range cs {
				proven[string(CellPrefix(c.Table, c.Column, c.PK))] = string(c.Value)
			}
		}
		for _, c := range claimed {
			if value, ok := proven[string(CellPrefix(c.Table, c.Column, c.PK))]; !ok || value != string(c.Value) {
				err = fmt.Errorf("the response claims a cell of %s.%s its proof does not hold", c.Table, c.Column)
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTampered, err)
	}
	v.accept(&bound, d, pin.Path, reads)
	return live, nil
}

// CheckHistory is Check for a cell's history: p is the point proof of q,
// the cell's head, and bodies the versions the head replaced, newest first,
// each checked against the link before it (Chain). It returns every
// version, newest first, tombstones included; a failure is ErrTampered and
// leaves the verifier as it was.
func (v *Verifier) CheckHistory(p *Proof, d Digest, q BatchQuery, bodies [][]byte, pin *Pin) ([]Cell, error) {
	if p == nil || p.Point == nil || len(p.Ranges) != 0 {
		return nil, fmt.Errorf("%w: history without its head's point proof", ErrTampered)
	}
	bound := *p
	if err := v.bind(&bound, d, pin); err != nil {
		return nil, err
	}
	var cells []Cell
	err := bound.Point.walk(bound.Header.CellRoot, pin.Path, [][]byte{CellPrefix(q.Table, q.Column, q.PK)},
		func(_ int, head []byte, found bool) (err error) {
			cells, err = Chain(q.Table, q.Column, q.PK, head, found, bodies)
			return err
		})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTampered, err)
	}
	v.accept(&bound, d, pin.Path, 1)
	return cells, nil
}

// VerifyBlock checks that a block header is part of the ledger the
// trusted digest commits to. Clients use it to verify *writes*: the block
// exists, and its recorded write-set hash can then be compared against the
// locally computed one (batch-level write verification, Section 5.3).
func (v *Verifier) VerifyBlock(header BlockHeader, inc mtree.InclusionProof) error {
	v.mu.Lock()
	d := v.digest
	trusted := v.trusted
	v.mu.Unlock()
	if !trusted {
		return fmt.Errorf("%w: no trusted digest pinned", ErrTampered)
	}
	if err := VerifyBlock(header, inc, d); err != nil {
		return fmt.Errorf("%w: block %d not covered by digest %d", ErrTampered, header.Height, d.Height)
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

// Stats reports how many proofs were verified and deferred in total.
func (v *Verifier) Stats() (verified, deferred int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.verified, v.deferred
}

// ProofStats is what the point, range and batch proofs a Verifier checked
// cost, and what its node cache holds (see Count for the sums over all
// verifiers in the process).
type ProofStats struct {
	NodesShipped   int64 // proof nodes that arrived, as bodies or as patches, and were hashed
	NodesPatched   int64 // of those, index nodes that arrived as a patch against a cached version
	NodesElided    int64 // nodes the server left out and the node cache answered instead
	ProofBytes     int64 // proof material received: node bodies (leaf runs unpacked) and patches, and the header and inclusion path where they travelled (not the question, which the client supplies)
	BindingsElided int64 // proofs that travelled without their block binding
	CacheEntries   int   // verified index nodes currently cached
	CacheBytes     int   // the memory they hold: bodies plus decoded entries (at most 2 MiB)
}

// ProofStats reports the verifier's proof traffic and cache occupancy.
func (v *Verifier) ProofStats() ProofStats {
	v.mu.Lock()
	st := v.traffic
	v.mu.Unlock()
	v.nodes.mu.Lock()
	st.CacheEntries, st.CacheBytes = len(v.nodes.m), v.nodes.bytes
	v.nodes.mu.Unlock()
	return st
}
