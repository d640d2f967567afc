package tso

import (
	"sync"
	"testing"
)

func TestNextIncreases(t *testing.T) {
	o := New(100)
	if a, b := o.Next(), o.Next(); a != 101 || b != 102 {
		t.Fatalf("Next sequence = %d, %d", a, b)
	}
}

func TestConcurrentUniqueness(t *testing.T) {
	o := New(0)
	const goroutines, per = 16, 2000
	out := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				out[g] = append(out[g], o.Next())
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[uint64]bool, goroutines*per)
	for _, ts := range out {
		prev := uint64(0)
		for _, v := range ts {
			if v <= prev {
				t.Fatal("per-goroutine not increasing")
			}
			prev = v
			if seen[v] {
				t.Fatalf("duplicate timestamp %d", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != goroutines*per {
		t.Fatalf("issued %d unique, want %d", len(seen), goroutines*per)
	}
}
