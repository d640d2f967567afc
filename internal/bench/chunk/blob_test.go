package chunk

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"spitz/internal/cas"
	"spitz/internal/hashutil"
)

func TestBlobRoundTrip(t *testing.T) {
	bs := NewBlobStore(cas.NewMemory())
	for _, n := range []int{0, 1, 4096, 16 * 1024, 257 * 1024} {
		rng := rand.New(rand.NewSource(int64(n)))
		data := make([]byte, n)
		rng.Read(data)
		d := bs.PutBlob(data)
		got, err := bs.GetBlob(d)
		if err != nil {
			t.Fatalf("n=%d GetBlob: %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("n=%d blob round trip mismatch", n)
		}
	}
}

func TestBlobGetErrors(t *testing.T) {
	bs := NewBlobStore(cas.NewMemory())
	var absent hashutil.Digest
	absent[3] = 9
	if _, err := bs.GetBlob(absent); err == nil {
		t.Fatal("GetBlob of absent manifest succeeded")
	}
	// A manifest that is not a multiple of digest size is malformed.
	s := cas.NewMemory()
	bs2 := NewBlobStore(s)
	bad := s.Put(hashutil.DomainValue, []byte("0123456789abcdef0"))
	if _, err := bs2.GetBlob(bad); err == nil {
		t.Fatal("GetBlob accepted malformed manifest")
	}
}

// The Figure 1 mechanism: versions of a 16 KB page that differ in one small
// region must cost far less than a full copy each.
func TestBlobDedupAcrossVersions(t *testing.T) {
	store := cas.NewMemory()
	bs := NewBlobStore(store)
	rng := rand.New(rand.NewSource(1))
	page := make([]byte, 16*1024)
	rng.Read(page)
	bs.PutBlob(page)
	base := store.Stats().PhysicalBytes

	for v := 0; v < 20; v++ {
		off := rng.Intn(len(page) - 64)
		rng.Read(page[off : off+64]) // edit a 64-byte region
		bs.PutBlob(page)
	}
	st := store.Stats()
	grown := st.PhysicalBytes - base
	naive := int64(20 * 16 * 1024)
	if grown >= naive/2 {
		t.Fatalf("20 edited versions grew store by %d bytes; naive would be %d — dedup ineffective", grown, naive)
	}
}

// Property: blob round trip is the identity for arbitrary payloads.
func TestQuickBlobRoundTrip(t *testing.T) {
	bs := NewBlobStore(cas.NewMemory())
	f := func(data []byte) bool {
		d := bs.PutBlob(data)
		got, err := bs.GetBlob(d)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
