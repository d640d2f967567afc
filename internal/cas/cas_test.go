package cas

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"spitz/internal/hashutil"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := NewMemory()
	d := s.Put(hashutil.DomainValue, []byte("hello"))
	got, err := s.Get(d)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got) != "hello" {
		t.Fatalf("Get = %q, want %q", got, "hello")
	}
}

func TestGetNotFound(t *testing.T) {
	s := NewMemory()
	var d hashutil.Digest
	d[0] = 0xAB
	if _, err := s.Get(d); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of absent digest: err = %v, want ErrNotFound", err)
	}
}

func TestPutIdempotent(t *testing.T) {
	s := NewMemory()
	d1 := s.Put(hashutil.DomainValue, []byte("same"))
	d2 := s.Put(hashutil.DomainValue, []byte("same"))
	if d1 != d2 {
		t.Fatal("same content produced different digests")
	}
	st := s.Stats()
	if st.Objects != 1 {
		t.Fatalf("Objects = %d, want 1", st.Objects)
	}
	if st.DedupHits != 1 {
		t.Fatalf("DedupHits = %d, want 1", st.DedupHits)
	}
	if st.LogicalBytes != 8 || st.PhysicalBytes != 4 {
		t.Fatalf("bytes: logical=%d physical=%d, want 8/4", st.LogicalBytes, st.PhysicalBytes)
	}
}

func TestDomainsKeepObjectsApart(t *testing.T) {
	s := NewMemory()
	d1 := s.Put(hashutil.DomainLeaf, []byte("x"))
	d2 := s.Put(hashutil.DomainInner, []byte("x"))
	if d1 == d2 {
		t.Fatal("different domains produced the same digest")
	}
	if s.Stats().Objects != 2 {
		t.Fatal("expected two distinct objects")
	}
}

func TestPutCopiesInput(t *testing.T) {
	s := NewMemory()
	buf := []byte("mutate me")
	d := s.Put(hashutil.DomainValue, buf)
	buf[0] = 'X'
	got, err := s.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "mutate me" {
		t.Fatal("store aliased caller's buffer")
	}
}

func TestDelete(t *testing.T) {
	s := NewMemory()
	d := s.Put(hashutil.DomainValue, []byte("gone"))
	s.Delete(d)
	if s.Has(d) {
		t.Fatal("object still present after Delete")
	}
	if st := s.Stats(); st.Objects != 0 || st.PhysicalBytes != 0 {
		t.Fatalf("stats after delete: %+v", st)
	}
	s.Delete(d) // deleting twice must be harmless
}

func TestSavingsRatio(t *testing.T) {
	s := NewMemory()
	if r := s.Stats().SavingsRatio(); r != 1 {
		t.Fatalf("empty store ratio = %v, want 1", r)
	}
	for i := 0; i < 10; i++ {
		s.Put(hashutil.DomainValue, []byte("dup"))
	}
	if r := s.Stats().SavingsRatio(); r < 9.9 || r > 10.1 {
		t.Fatalf("ratio = %v, want ~10", r)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := NewMemory()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				data := make([]byte, 16)
				rng.Read(data)
				d := s.Put(hashutil.DomainValue, data)
				got, err := s.Get(d)
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("concurrent round trip failed: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCountingStore(t *testing.T) {
	c := NewCounting(NewMemory())
	d := c.Put(hashutil.DomainValue, []byte("a"))
	if _, err := c.Get(d); err != nil {
		t.Fatal(err)
	}
	if !c.Has(d) {
		t.Fatal("Has returned false for stored object")
	}
	puts, gets := c.Ops()
	if puts != 1 || gets != 1 {
		t.Fatalf("ops = %d/%d, want 1/1", puts, gets)
	}
	if c.Stats().Objects != 1 {
		t.Fatal("Stats not forwarded")
	}
}

// Property: Put then Get returns the stored content for arbitrary payloads.
func TestQuickPutGet(t *testing.T) {
	s := NewMemory()
	f := func(data []byte) bool {
		d := s.Put(hashutil.DomainValue, data)
		got, err := s.Get(d)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
