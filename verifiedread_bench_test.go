package spitz_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"spitz"
	"spitz/internal/wire"
)

// BenchmarkVerifiedRead measures the network verified-read path end to
// end — the lever this PR pulls. Three modes over the same served
// database and the same key distribution:
//
//   - Unverified:    a bare OpGet round trip (wire.Client.Do) — the
//     floor (transport + lookup only), what AuditMode's reads send.
//   - EagerVerify:   Client.GetVerified — full proof constructed,
//     shipped and checked per read (the PR 4 behaviour).
//   - DeferredAudit: Client.GetVerified under AuditMode — proof-free
//     reads plus batch audits; the audit flush runs inside the timed
//     region, so the per-op cost honestly includes verification.
//
// Connection setup is hoisted out of the timed loop and allocs/op are
// reported, so numbers stay comparable across PRs.
func BenchmarkVerifiedRead(b *testing.B) {
	const keys = 20_000
	db := spitz.Open(spitz.Options{})
	const batch = 1000
	for lo := 0; lo < keys; lo += batch {
		puts := make([]spitz.Put, 0, batch)
		for i := lo; i < lo+batch && i < keys; i++ {
			puts = append(puts, spitz.Put{Table: "t", Column: "c",
				PK: benchReadKey(i), Value: []byte("value-00000000")})
		}
		if _, err := db.Apply("load", puts); err != nil {
			b.Fatal(err)
		}
	}
	ln, _ := wire.Listen()
	go db.Serve(ln)
	defer ln.Close()

	client := func(b *testing.B) *spitz.Client {
		b.Helper()
		wc, err := wire.Connect(ln)
		if err != nil {
			b.Fatal(err)
		}
		return spitz.NewClient(wc)
	}
	// Reads draw uniformly from a 1000-key working set — the same
	// distribution the PR 4 replica benchmark measured eager verified
	// reads with (spitz-bench -replica-keys 1000), keeping the
	// eager-vs-deferred comparison apples to apples. Repeats within an
	// audit horizon are what let batch proofs share leaf bodies.
	const hotSet = 1000
	key := func(i int) []byte {
		return benchReadKey(int(uint64(i)*2654435761) % hotSet)
	}

	// The floor: the bare OpGet round trip AuditMode's optimistic reads
	// send.
	b.Run("Unverified", func(b *testing.B) {
		wc, err := wire.Connect(ln)
		if err != nil {
			b.Fatal(err)
		}
		defer wc.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := wc.Do(wire.Request{Op: wire.OpGet, Table: "t", Column: "c", PK: key(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("EagerVerify", func(b *testing.B) {
		cl := client(b)
		defer cl.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, found, err := cl.GetVerified("t", "c", key(i)); err != nil || !found {
				b.Fatalf("verified read: %v %v", found, err)
			}
		}
	})
	b.Run("DeferredAudit", func(b *testing.B) {
		cl := client(b)
		aud, err := cl.StartAudit(spitz.AuditMode{MaxPending: 512, MaxDelay: time.Hour})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, found, err := cl.GetVerified("t", "c", key(i)); err != nil || !found {
				b.Fatalf("audited read: %v %v", found, err)
			}
		}
		// The verification debt is part of the cost: flush inside the
		// timed region.
		if err := aud.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := cl.Close(); err != nil {
			b.Fatal(err)
		}
	})
	// The parallel variants spread the same reads over 8 connections —
	// closer to a fleet of clients than one serialized conn.
	parallel := func(b *testing.B, mode string) {
		const conns = 8
		clients := make([]*spitz.Client, conns)
		auditors := make([]*spitz.Auditor, conns)
		for i := range clients {
			clients[i] = client(b)
			if mode == "audit" {
				aud, err := clients[i].StartAudit(spitz.AuditMode{MaxPending: 512, MaxDelay: time.Hour})
				if err != nil {
					b.Fatal(err)
				}
				auditors[i] = aud
			}
		}
		defer func() {
			for _, cl := range clients {
				cl.Close()
			}
		}()
		var next sync.Mutex
		slot := 0
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			next.Lock()
			cl := clients[slot%conns]
			slot++
			next.Unlock()
			i := 0
			for pb.Next() {
				i++
				if _, found, err := cl.GetVerified("t", "c", key(i)); err != nil || !found {
					b.Fatalf("read: %v %v", found, err)
				}
			}
		})
		for _, aud := range auditors {
			if aud == nil {
				continue
			}
			if err := aud.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	}
	b.Run("EagerVerifyParallel", func(b *testing.B) { parallel(b, "eager") })
	b.Run("DeferredAuditParallel", func(b *testing.B) { parallel(b, "audit") })
}

func benchReadKey(i int) []byte { return []byte(fmt.Sprintf("pk%06d", i)) }
