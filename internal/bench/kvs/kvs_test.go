package kvs

import (
	"fmt"
	"sync"
	"testing"

	"spitz/internal/cas"
)

func batch(lo, hi int, tag string) []KV {
	out := make([]KV, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, KV{Key: []byte(fmt.Sprintf("key%06d", i)),
			Value: []byte(fmt.Sprintf("%s-%06d", tag, i))})
	}
	return out
}

func TestApplyGet(t *testing.T) {
	s := New(nil)
	if err := s.Apply(batch(0, 1000, "v")); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1000 {
		t.Fatalf("Len = %d", s.Len())
	}
	v, ok, err := s.Get([]byte("key000500"))
	if err != nil || !ok || string(v) != "v-000500" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if _, ok, _ := s.Get([]byte("nope")); ok {
		t.Fatal("found absent key")
	}
}

func TestOverwrite(t *testing.T) {
	s := New(nil)
	s.Apply(batch(0, 10, "a"))
	s.Apply(batch(0, 10, "b"))
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	v, _, _ := s.Get([]byte("key000003"))
	if string(v) != "b-000003" {
		t.Fatalf("overwrite lost: %q", v)
	}
}

func TestScan(t *testing.T) {
	s := New(nil)
	s.Apply(batch(0, 500, "v"))
	var n int
	s.Scan([]byte("key000100"), []byte("key000200"), func(k, v []byte) bool {
		n++
		return true
	})
	if n != 100 {
		t.Fatalf("scan = %d", n)
	}
}

func TestSnapshotImmutability(t *testing.T) {
	s := New(nil)
	s.Apply(batch(0, 100, "a"))
	snap := s.Snapshot()
	s.Apply(batch(0, 100, "b"))
	v, ok, err := snap.Get([]byte("key000001"))
	if err != nil || !ok || string(v) != "a-000001" {
		t.Fatal("old snapshot mutated")
	}
}

func TestConcurrentReadsDuringWrites(t *testing.T) {
	s := New(nil)
	s.Apply(batch(0, 1000, "init"))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if _, ok, err := s.Get([]byte("key000500")); err != nil || !ok {
						t.Error("read failed during writes")
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := s.Apply(batch(i*50, i*50+50, "w")); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestOpenResumesAtRootOverDisk(t *testing.T) {
	dir := t.TempDir()
	store, err := cas.OpenDisk(dir, cas.DiskOptions{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s := New(store)
	if err := s.Apply(batch(0, 500, "v")); err != nil {
		t.Fatal(err)
	}
	root := s.Root()
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the store and resume the KVS at its saved root: only the
	// root node loads eagerly, lookups fault in their own paths.
	store2, err := cas.OpenDisk(dir, cas.DiskOptions{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	s2, err := Open(store2, root)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i += 37 {
		v, ok, err := s2.Get([]byte(fmt.Sprintf("key%06d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("v-%06d", i) {
			t.Fatalf("key%06d after reopen: %q ok=%v err=%v", i, v, ok, err)
		}
	}
	if s2.Root() != root {
		t.Fatalf("root drifted across reopen")
	}
	// The resumed store keeps evolving.
	if err := s2.Apply(batch(500, 600, "w")); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 600 {
		t.Fatalf("Len after resume+apply = %d", s2.Len())
	}
}
