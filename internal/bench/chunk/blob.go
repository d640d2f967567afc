package chunk

import (
	"encoding/binary"
	"fmt"

	"spitz/internal/cas"
	"spitz/internal/hashutil"
)

// BlobStore stores large values as content-defined chunk lists, the way
// ForkBase stores blobs. Two versions of a document that differ in a small
// region share almost all of their chunks, so the marginal cost of a new
// version is proportional to the size of the edit, not of the document.
type BlobStore struct {
	store   cas.Store
	chunker *Chunker
}

// NewBlobStore returns a BlobStore writing into store with default
// chunking parameters.
func NewBlobStore(store cas.Store) *BlobStore {
	return &BlobStore{store: store, chunker: New(Options{})}
}

// PutBlob chunks value and stores each chunk plus a manifest listing the
// chunk digests. It returns the digest of the manifest, which identifies
// the blob.
func (b *BlobStore) PutBlob(value []byte) hashutil.Digest {
	chunks := b.chunker.Split(value)
	manifest := make([]byte, 0, 8+len(chunks)*hashutil.DigestSize)
	var lenbuf [8]byte
	binary.BigEndian.PutUint64(lenbuf[:], uint64(len(value)))
	manifest = append(manifest, lenbuf[:]...)
	for _, c := range chunks {
		b.store.Put(hashutil.DomainChunk, c.Data)
		manifest = append(manifest, c.Digest[:]...)
	}
	return b.store.Put(hashutil.DomainValue, manifest)
}

// GetBlob reassembles the blob identified by manifest digest d.
func (b *BlobStore) GetBlob(d hashutil.Digest) ([]byte, error) {
	manifest, err := b.store.Get(d)
	if err != nil {
		return nil, fmt.Errorf("chunk: blob manifest: %w", err)
	}
	if len(manifest) < 8 || (len(manifest)-8)%hashutil.DigestSize != 0 {
		return nil, fmt.Errorf("chunk: malformed blob manifest %s", d.Short())
	}
	total := binary.BigEndian.Uint64(manifest[:8])
	out := make([]byte, 0, total)
	for off := 8; off < len(manifest); off += hashutil.DigestSize {
		var cd hashutil.Digest
		copy(cd[:], manifest[off:off+hashutil.DigestSize])
		data, err := b.store.Get(cd)
		if err != nil {
			return nil, fmt.Errorf("chunk: blob chunk %s: %w", cd.Short(), err)
		}
		out = append(out, data...)
	}
	if uint64(len(out)) != total {
		return nil, fmt.Errorf("chunk: blob %s length %d, manifest says %d", d.Short(), len(out), total)
	}
	return out, nil
}
