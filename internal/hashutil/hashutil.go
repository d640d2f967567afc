// Package hashutil provides the digest type and domain-separated hashing
// helpers used by every Merkle structure in the repository.
//
// All tamper-evident structures (the ledger, the SIRI indexes, the journal
// Merkle tree) hash their nodes with SHA-256 under a one-byte domain tag so
// that, for example, a leaf node can never be confused with an interior
// node, and a ledger block can never be replayed as an index node.
package hashutil

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
)

// DigestSize is the size in bytes of a Digest.
const DigestSize = sha256.Size

// Digest is a SHA-256 hash value. The zero Digest is treated as "no hash"
// (e.g. the parent of the genesis ledger block).
type Digest [DigestSize]byte

// Domain tags. Each Merkle structure hashes its payloads under a distinct
// domain so cross-structure collisions are impossible by construction.
const (
	DomainLeaf      byte = 0x00 // Merkle tree leaf
	DomainInner     byte = 0x01 // Merkle tree interior node
	DomainValue     byte = 0x02 // raw user value
	DomainPOSLeaf   byte = 0x03 // POS-tree leaf node
	DomainPOSIndex  byte = 0x04 // POS-tree index node
	DomainMPTNode   byte = 0x05 // Merkle Patricia Trie node
	DomainMBTBucket byte = 0x06 // Merkle bucket tree bucket
	DomainMBTInner  byte = 0x07 // Merkle bucket tree interior
	DomainBlock     byte = 0x08 // ledger block header
	DomainCell      byte = 0x09 // cell store cell
	DomainChunk     byte = 0x0a // content-defined chunk
	DomainTxn       byte = 0x0b // transaction digest
	DomainStmt      byte = 0x0c // statement summary
	DomainBTreeNode byte = 0x0d // copy-on-write B+-tree node
	DomainJournal   byte = 0x0e // baseline journal block body
	DomainPostings  byte = 0x0f // inverted index posting list
	DomainCluster   byte = 0x10 // cluster digest vector (per-shard digests)
	DomainPOSEntry  byte = 0x11 // one entry of a POS-tree leaf (internal/posleaf)
	DomainPOSInner  byte = 0x12 // interior node of the hash tree over a POS-tree leaf's entries
)

// Zero is the zero digest, used as "absent".
var Zero Digest

// IsZero reports whether d is the zero digest.
func (d Digest) IsZero() bool { return d == Zero }

// String returns the hex form of the digest.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Short returns the first 8 hex characters, for logs and examples.
func (d Digest) Short() string { return hex.EncodeToString(d[:4]) }

// Parse decodes a hex string produced by String.
func Parse(s string) (Digest, error) {
	var d Digest
	b, err := hex.DecodeString(s)
	if err != nil {
		return d, fmt.Errorf("hashutil: parse digest: %w", err)
	}
	if len(b) != DigestSize {
		return d, errors.New("hashutil: parse digest: wrong length")
	}
	copy(d[:], b)
	return d, nil
}

// Sum hashes data under the given domain tag.
func Sum(domain byte, data []byte) Digest {
	h := sha256.New()
	h.Write([]byte{domain})
	h.Write(data)
	var d Digest
	h.Sum(d[:0])
	return d
}

// SumParts hashes the concatenation of parts under the given domain tag.
// Each part is length-prefixed so the encoding is injective.
func SumParts(domain byte, parts ...[]byte) Digest {
	h := sha256.New()
	h.Write([]byte{domain})
	var lenbuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenbuf[:], uint64(len(p)))
		h.Write(lenbuf[:])
		h.Write(p)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// SumPair hashes two child digests into a parent digest (Merkle interior).
func SumPair(domain byte, left, right Digest) Digest {
	var buf [1 + 2*DigestSize]byte
	buf[0] = domain
	copy(buf[1:], left[:])
	copy(buf[1+DigestSize:], right[:])
	return sha256.Sum256(buf[:])
}

// Hasher is Sum for code that hashes many small inputs in a row: the tag
// and the input are laid out in one buffer and hashed in one call, so
// nothing is allocated per input — and nothing at all while the inputs fit
// the buffer a Hasher carries. The zero Hasher is ready to use; it is not
// safe for concurrent use.
type Hasher struct {
	small [256]byte
	large []byte // grown for, and reused by, inputs small has no room for
}

// Sum is the package's Sum.
func (h *Hasher) Sum(domain byte, data []byte) Digest {
	buf := h.small[:0]
	if len(data) >= len(h.small) {
		if cap(h.large) <= len(data) {
			h.large = make([]byte, 0, 2*len(data))
		}
		buf = h.large[:0]
	}
	return sha256.Sum256(append(append(buf, domain), data...))
}

// Stream incrementally computes a SumParts-compatible digest without
// holding all parts in memory at once.
type Stream struct {
	h interface {
		Write([]byte) (int, error)
		Sum([]byte) []byte
	}
	lenbuf [8]byte
}

// NewStream starts a streaming SumParts computation under domain.
func NewStream(domain byte) *Stream {
	s := &Stream{h: sha256.New()}
	s.h.Write([]byte{domain})
	return s
}

// Part appends one length-prefixed part.
func (s *Stream) Part(p []byte) {
	binary.BigEndian.PutUint64(s.lenbuf[:], uint64(len(p)))
	s.h.Write(s.lenbuf[:])
	s.h.Write(p)
}

// Sum finalizes the digest. The stream must not be reused afterwards.
func (s *Stream) Sum() Digest {
	var d Digest
	s.h.Sum(d[:0])
	return d
}
