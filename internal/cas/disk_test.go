package cas

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"spitz/internal/hashutil"
	"spitz/internal/posleaf"
)

func testBody(i int) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("body-%06d|", i)), 8)
}

// testLeaf is a well-formed POS-tree leaf body of n entries: addressed by
// its header, which commits to the entries group by group.
func testLeaf(i, n int) []byte {
	w := posleaf.NewWriter(n, n*32)
	for j := 0; j < n; j++ {
		w.Entry([]byte(fmt.Sprintf("leaf-%03d-key-%04d", i, j)), []byte(fmt.Sprintf("value-%04d", j)))
	}
	return w.Body()
}

func openTestDisk(t *testing.T, dir string, opts DiskOptions) *Disk {
	t.Helper()
	s, err := OpenDisk(dir, opts)
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	return s
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTestDisk(t, dir, DiskOptions{})
	defer s.Close()

	var digests []hashutil.Digest
	for i := 0; i < 100; i++ {
		digests = append(digests, s.Put(hashutil.DomainPOSLeaf, testBody(i)))
	}
	// Dedup: same content again must not grow the store.
	before := s.Stats()
	s.Put(hashutil.DomainPOSLeaf, testBody(0))
	after := s.Stats()
	if after.Objects != before.Objects || after.DedupHits != before.DedupHits+1 {
		t.Fatalf("dedup not applied: before=%+v after=%+v", before, after)
	}
	for i, d := range digests {
		if !s.Has(d) {
			t.Fatalf("Has(%d) = false", i)
		}
		got, err := s.Get(d)
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if !bytes.Equal(got, testBody(i)) {
			t.Fatalf("Get(%d): wrong body", i)
		}
		if dom, ok := s.Domain(d); !ok || dom != hashutil.DomainPOSLeaf {
			t.Fatalf("Domain(%d) = %v, %v", i, dom, ok)
		}
	}
	if _, err := s.Get(hashutil.Sum(hashutil.DomainValue, []byte("absent"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing object: got %v, want ErrNotFound", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
}

func TestDiskReopenMultiSegment(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations, so reopen exercises the sealed
	// footer path as well as the active-segment scan.
	s := openTestDisk(t, dir, DiskOptions{SegmentBytes: 4 << 10})
	const n = 300
	var digests []hashutil.Digest
	for i := 0; i < n; i++ {
		dom := hashutil.DomainPOSLeaf
		if i%3 == 0 {
			dom = hashutil.DomainPOSIndex
		}
		digests = append(digests, s.Put(dom, testBody(i)))
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}

	r := openTestDisk(t, dir, DiskOptions{SegmentBytes: 4 << 10})
	defer r.Close()
	if got := r.Stats().Objects; got != n {
		t.Fatalf("reopened Objects = %d, want %d", got, n)
	}
	for i, d := range digests {
		got, err := r.Get(d)
		if err != nil {
			t.Fatalf("reopened Get(%d): %v", i, err)
		}
		if !bytes.Equal(got, testBody(i)) {
			t.Fatalf("reopened Get(%d): wrong body", i)
		}
	}
	// The store stays writable after reopen, including across rotations.
	d := r.Put(hashutil.DomainValue, []byte("post-reopen"))
	if err := r.Flush(); err != nil {
		t.Fatalf("Flush after reopen: %v", err)
	}
	if got, err := r.Get(d); err != nil || string(got) != "post-reopen" {
		t.Fatalf("post-reopen Get: %q, %v", got, err)
	}
}

func TestDiskTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := openTestDisk(t, dir, DiskOptions{})
	var digests []hashutil.Digest
	for i := 0; i < 20; i++ {
		digests = append(digests, s.Put(hashutil.DomainPOSLeaf, testBody(i)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash mid-append leaves a partial record at the tail.
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[len(segs)-1])
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x01, 0x40, 0x03, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := openTestDisk(t, dir, DiskOptions{})
	defer r.Close()
	if got := r.Stats().Objects; got != len(digests) {
		t.Fatalf("objects after torn tail = %d, want %d", got, len(digests))
	}
	for i, d := range digests {
		if _, err := r.Get(d); err != nil {
			t.Fatalf("Get(%d) after torn-tail truncation: %v", i, err)
		}
	}
	// Appends continue cleanly into the truncated segment.
	d := r.Put(hashutil.DomainValue, []byte("after-torn"))
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := r.Get(d); err != nil || string(got) != "after-torn" {
		t.Fatalf("Get after torn-tail append: %q, %v", got, err)
	}
}

// intact reports whether data is, byte for byte, the object d addresses:
// for a leaf, its table hashes up to d and every group checks against it.
func intact(domain byte, data []byte, d hashutil.Digest) bool {
	if domain == hashutil.DomainPOSLeaf {
		if l, err := posleaf.Parse(data); err == nil {
			got, err := l.Verify()
			return err == nil && got == d
		}
	}
	return hashutil.Sum(domain, data) == d
}

// rewriteRecord applies flip to the payload of d's record on disk and,
// when fixCRC is set, rewrites the record's CRC to match, as a writer that
// damaged the bytes before framing them would leave it.
func rewriteRecord(t *testing.T, s *Disk, d hashutil.Digest, fixCRC bool, flip func(payload []byte)) {
	t.Helper()
	loc := s.index[d]
	f := s.segs[loc.seg].f
	rec := make([]byte, recHeaderSize+int(loc.length))
	if _, err := f.ReadAt(rec, loc.off); err != nil {
		t.Fatal(err)
	}
	flip(rec[recHeaderSize:])
	if fixCRC {
		crc := crc32.Checksum(rec[:recHeaderSize-4], diskCRCTable)
		binary.BigEndian.PutUint32(rec[recHeaderSize-4:], crc32.Update(crc, diskCRCTable, rec[recHeaderSize:]))
	}
	if _, err := f.WriteAt(rec, loc.off); err != nil {
		t.Fatal(err)
	}
}

func TestDiskBitFlipFailsHashVerification(t *testing.T) {
	for name, victimBody := range map[string][]byte{
		"plain object": testBody(2),
		// A leaf's address is the hash of its header only; the entries are
		// bound to it through the header's group digests, which Get checks,
		// and each group where it is used.
		"grouped leaf": testLeaf(2, 21),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTestDisk(t, dir, DiskOptions{})
			good := s.Put(hashutil.DomainPOSLeaf, testLeaf(1, 9))
			victim := s.Put(hashutil.DomainPOSLeaf, victimBody)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Flip each payload byte of the victim record on disk in turn —
			// header and entries alike. Get checks the record CRC, so this
			// models media corruption after the open's scan.
			r := openTestDisk(t, dir, DiskOptions{})
			defer r.Close()
			loc := r.index[victim]
			if int(loc.length) != len(victimBody) {
				t.Fatalf("indexed length %d, body %d", loc.length, len(victimBody))
			}
			f := r.segs[loc.seg].f
			for off := int64(0); off < int64(loc.length); off++ {
				at := loc.off + recHeaderSize + off
				flipped := []byte{victimBody[off] ^ 0x01}
				if _, err := f.WriteAt(flipped, at); err != nil {
					t.Fatal(err)
				}
				if _, err := r.Get(victim); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("byte %d flipped: Get returned %v, want ErrCorrupt", off, err)
				}
				if _, err := f.WriteAt(victimBody[off:off+1], at); err != nil {
					t.Fatal(err)
				}
			}
			if got, err := r.Get(victim); err != nil || !bytes.Equal(got, victimBody) {
				t.Fatalf("restored object: %v", err)
			}
			if _, err := r.Get(good); err != nil {
				t.Fatalf("intact object: %v", err)
			}
		})
	}

	// A leaf of three groups (8, 8 and 5 entries), one byte flipped: with
	// the CRC intact Get refuses the record; with the CRC rewritten to match
	// the flip, Get binds the table — so a flip there still fails it — and a
	// flipped group fails the first check that uses it, and no other.
	leaf := testLeaf(3, 21)
	l, err := posleaf.Parse(leaf)
	if err != nil {
		t.Fatal(err)
	}
	valueByte := func(pos int) int { // the last byte of entry pos
		rest := l.Entries
		for i := 0; i <= pos; i++ {
			_, _, rest, _ = posleaf.ReadEntry(rest)
		}
		return len(leaf) - len(rest) - 1
	}
	tableByte := len(leaf) - len(l.Entries) - 2*hashutil.DigestSize + 5 // in group 1's root
	for _, row := range []struct {
		name        string
		at          int
		first, then [2]int // entries lo, hi a reader uses: first must pass, then must fail
	}{
		{"used group", valueByte(3), [2]int{0, -1}, [2]int{3, 3}},
		{"unused group then used", valueByte(17), [2]int{0, 15}, [2]int{16, 20}},
		{"table", tableByte, [2]int{}, [2]int{}},
	} {
		for _, fixCRC := range []bool{false, true} {
			name := row.name + "/crc intact"
			if fixCRC {
				name = row.name + "/crc recomputed"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				s := openTestDisk(t, dir, DiskOptions{})
				d := s.Put(hashutil.DomainPOSLeaf, leaf)
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				r := openTestDisk(t, dir, DiskOptions{})
				defer r.Close()
				rewriteRecord(t, r, d, fixCRC, func(p []byte) { p[row.at] ^= 0x01 })
				body, err := r.Get(d)
				if !fixCRC || row.name == "table" {
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("Get returned %v, want ErrCorrupt", err)
					}
					return
				}
				if err != nil {
					t.Fatalf("Get of a record whose table is intact: %v", err)
				}
				if err := r.CheckGroups(d, body, row.first[0], row.first[1]); err != nil {
					t.Fatalf("groups away from the flip: %v", err)
				}
				for i := 0; i < 2; i++ { // a failed check is not remembered as passed
					if err := r.CheckGroups(d, body, row.then[0], row.then[1]); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("check %d of the flipped group returned %v, want ErrCorrupt", i, err)
					}
				}
			})
		}
	}
}

// TestDiskGroupChecksOncePerReadLeaf: a leaf this process wrote is never
// hashed again, dirty or flushed; one read back from a segment has each
// group hashed once, however often it is used, while it stays cached; and
// once it has been evicted, the body a caller still holds is hashed on
// every use.
func TestDiskGroupChecksOncePerReadLeaf(t *testing.T) {
	dir := t.TempDir()
	s := openTestDisk(t, dir, DiskOptions{})
	leaf := testLeaf(4, 30) // four groups
	d := s.Put(hashutil.DomainPOSLeaf, leaf)
	groups := func(s *Disk) int64 { return s.CacheStats().GroupsChecked }
	check := func(s *Disk, body []byte, lo, hi int) {
		t.Helper()
		if err := s.CheckGroups(d, body, lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	body, _ := s.Get(d)
	check(s, body, 0, 29)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	body, _ = s.Get(d)
	check(s, body, 0, 29)
	if n := groups(s); n != 0 {
		t.Fatalf("%d groups hashed of a leaf this process wrote", n)
	}
	// A copy of the body is not the body the store holds.
	check(s, append([]byte(nil), body...), 8, 8)
	if n := groups(s); n != 1 {
		t.Fatalf("%d groups hashed of a copy, want 1", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTestDisk(t, dir, DiskOptions{CacheBytes: 1})
	defer r.Close()
	body, err := r.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	check(r, body, 3, 3)
	check(r, body, 0, 7)
	check(r, body, 7, 9)
	if n, cs := groups(r), r.CacheStats(); n != 2 || cs.LeafMisses != 1 {
		t.Fatalf("%d groups hashed over %d leaf misses, want groups 0 and 1 once each over one miss", n, cs.LeafMisses)
	}
	check(r, body, 0, 29)
	if n := groups(r); n != 4 {
		t.Fatalf("%d groups hashed, want each of the four once", n)
	}
	// Push the body out of the 1 MiB cache: what the caller holds is
	// hashed again, the store no longer knows it.
	filler := make([]byte, 64<<10)
	for i := 0; i < 32; i++ {
		copy(filler, fmt.Sprintf("filler-%02d", i))
		r.Put(hashutil.DomainValue, filler)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	_, cached := r.clean[d]
	r.mu.Unlock()
	if cached {
		t.Fatal("the leaf is still cached")
	}
	check(r, body, 0, 0)
	check(r, body, 0, 0)
	if n := groups(r); n != 6 {
		t.Fatalf("%d groups hashed, want 6: an evicted body is hashed on every use", n)
	}
}

// TestDiskGroupCheckCopiedGroups: a leaf this process writes with groups
// copied by root from a leaf read back from a segment vouches for them no
// more than the source did — flushed or not: a group the source had
// checked is not hashed again, one it had not is hashed at its first use
// in the new leaf, and the groups the writer framed itself never are.
func TestDiskGroupCheckCopiedGroups(t *testing.T) {
	dir := t.TempDir()
	s := openTestDisk(t, dir, DiskOptions{})
	sd := s.Put(hashutil.DomainPOSLeaf, testLeaf(5, 32)) // four groups
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTestDisk(t, dir, DiskOptions{})
	defer r.Close()
	srcBody, err := r.Get(sd)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckGroups(sd, srcBody, 8, 8); err != nil { // group 1
		t.Fatal(err)
	}
	l, _ := posleaf.Parse(srcBody)
	w := posleaf.NewWriter(32, 32*32)
	for i := 0; i < 8; i++ {
		w.Entry([]byte(fmt.Sprintf("leaf-005-key-%04d", i)), []byte("rewritten"))
	}
	if took := w.Copy(l.Source(), 8, 24); took != 24 {
		t.Fatalf("copied %d entries", took)
	}
	body := w.Body()
	d := r.PutOwned(hashutil.DomainPOSLeaf, body)
	// A spill or a checkpoint can move the new body to the clean cache
	// before the writer reports its copies.
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	r.CopiedGroups(d, body, 8, sd, srcBody, 8, 24)
	got, err := r.Get(d)
	if err != nil || !sameBytes(got, body) {
		t.Fatalf("the written leaf is not the cached body: %v", err)
	}
	before := r.CacheStats().GroupsChecked
	if err := r.CheckGroups(d, got, 0, 15); err != nil {
		t.Fatal(err)
	}
	if n := r.CacheStats().GroupsChecked - before; n != 0 {
		t.Fatalf("%d groups hashed: a framed group and one copied from a checked group", n)
	}
	if err := r.CheckGroups(d, got, 0, 31); err != nil {
		t.Fatal(err)
	}
	if n := r.CacheStats().GroupsChecked - before; n != 2 {
		t.Fatalf("%d groups hashed, want the two copied unchecked", n)
	}
}

// TestDiskGroupCheckRace runs group checks of read-back leaves against
// Gets, Puts and the evictions they cause: the record of what was checked
// lives beside the cached body, under the store's lock.
func TestDiskGroupCheckRace(t *testing.T) {
	dir := t.TempDir()
	s := openTestDisk(t, dir, DiskOptions{})
	var digests []hashutil.Digest
	for i := 0; i < 64; i++ {
		digests = append(digests, s.Put(hashutil.DomainPOSLeaf, testLeaf(i, 40)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTestDisk(t, dir, DiskOptions{CacheBytes: 1})
	defer r.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				d := digests[(i*7+w)%len(digests)]
				body, err := r.Get(d)
				if err == nil {
					err = r.CheckGroups(d, body, i%40, (i*3)%40)
				}
				if err != nil {
					errs <- err
					return
				}
				if w == 0 && i%10 == 0 {
					r.Put(hashutil.DomainValue, bytes.Repeat([]byte{byte(i)}, 200<<10))
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestDiskFooterLengthBounded: a sealed segment's index entry whose length
// reads negative as an int32 — the footer CRC recomputed over it — is
// refused at open, not allocated at the first Get.
func TestDiskFooterLengthBounded(t *testing.T) {
	dir := t.TempDir()
	s := openTestDisk(t, dir, DiskOptions{})
	d := s.Put(hashutil.DomainValue, testBody(1))
	s.Put(hashutil.DomainValue, testBody(2))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v: %v", segs, err)
	}
	path := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := data[len(data)-footerTrailerSize:]
	if string(tr[12:]) != idxMagic {
		t.Fatal("segment not sealed")
	}
	idxLen := int(binary.BigEndian.Uint32(tr[4:8]))
	blk := data[len(data)-footerTrailerSize-idxLen : len(data)-footerTrailerSize]
	binary.BigEndian.PutUint32(blk[hashutil.DigestSize+9:], 0xFFFFFFF0)
	binary.BigEndian.PutUint32(tr[8:12], crc32.Checksum(blk, diskCRCTable))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDisk(dir, DiskOptions{})
	if err == nil {
		defer r.Close()
		r.Get(d)
		t.Fatal("a footer entry of length 0xFFFFFFF0 opened")
	}
}

func TestDiskEvictionUnderPressure(t *testing.T) {
	dir := t.TempDir()
	// Minimum cache budget (1 MiB) with ~4 MiB of distinct objects: the
	// clean set cannot fit, so reads past the working set must refault.
	s := openTestDisk(t, dir, DiskOptions{CacheBytes: 1})
	const n = 1 << 10
	body := make([]byte, 4<<10)
	var digests []hashutil.Digest
	for i := 0; i < n; i++ {
		copy(body, fmt.Sprintf("obj-%06d", i))
		digests = append(digests, s.Put(hashutil.DomainPOSLeaf, body))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for i, d := range digests {
			got, err := s.Get(d)
			if err != nil {
				t.Fatalf("pass %d Get(%d): %v", pass, i, err)
			}
			if want := fmt.Sprintf("obj-%06d", i); string(got[:len(want)]) != want {
				t.Fatalf("pass %d Get(%d): wrong body", pass, i)
			}
		}
	}
	cs := s.CacheStats()
	if cs.Evictions == 0 {
		t.Fatalf("expected evictions under pressure, got stats %+v", cs)
	}
	if cs.Misses == 0 {
		t.Fatalf("expected refaults under pressure, got stats %+v", cs)
	}
	if cs.CleanBytes+cs.DirtyBytes > cs.CacheBudget+int64(len(body)) {
		t.Fatalf("cache over budget: %+v", cs)
	}
	s.Close()
}

func TestDiskSpillKeepsDataReadable(t *testing.T) {
	dir := t.TempDir()
	s := openTestDisk(t, dir, DiskOptions{CacheBytes: 1})
	defer s.Close()
	// >0.5 MiB dirty forces a spill before any Flush.
	body := make([]byte, 8<<10)
	var digests []hashutil.Digest
	for i := 0; i < 128; i++ {
		copy(body, fmt.Sprintf("spill-%04d", i))
		digests = append(digests, s.Put(hashutil.DomainPOSLeaf, body))
	}
	if got := s.CacheStats().Spills; got == 0 {
		t.Fatalf("expected spill, stats %+v", s.CacheStats())
	}
	for i, d := range digests {
		got, err := s.Get(d)
		if err != nil {
			t.Fatalf("Get(%d) after spill: %v", i, err)
		}
		if want := fmt.Sprintf("spill-%04d", i); string(got[:len(want)]) != want {
			t.Fatalf("Get(%d) after spill: wrong body", i)
		}
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFlushLeavesPutAndSpillRunning: Flush fsyncs outside the store lock,
// so the apply stage's Gets and Puts do not wait out a checkpoint's disk
// sync. The crashSync hook fires exactly where that fsync is about to
// start. From there the test Puts enough to spill and to rotate segments
// (under the old locking that deadlocks), then photographs the directory:
// a crash before the fsync returned. Whatever such a crash leaves of the
// unsealed tail — any prefix of it — reopens to every object Put before
// the Flush, and each racing object whole or not at all.
func TestFlushLeavesPutAndSpillRunning(t *testing.T) {
	dir := t.TempDir()
	s := openTestDisk(t, dir, DiskOptions{CacheBytes: 1, SegmentBytes: 256 << 10})
	body := make([]byte, 8<<10)
	put := func(tag string, n int) []hashutil.Digest {
		var ds []hashutil.Digest
		for i := 0; i < n; i++ {
			copy(body, fmt.Sprintf("%s-%04d", tag, i))
			ds = append(ds, s.Put(hashutil.DomainValue, body))
		}
		return ds
	}
	before := put("before", 50) // 400 KiB: below the spill threshold, dirty until the Flush
	var during []hashutil.Digest
	crashDir := t.TempDir()
	s.crashSync = func() {
		raced := make(chan struct{})
		go func() {
			defer close(raced)
			during = put("during", 100) // 800 KiB: spills, fills and seals segments
			for _, d := range []hashutil.Digest{before[0], during[0], during[99]} {
				if _, err := s.Get(d); err != nil {
					t.Errorf("Get racing the flush: %v", err)
				}
			}
		}()
		select {
		case <-raced:
		case <-time.After(10 * time.Second):
			t.Error("Put and Get wait for Flush's fsync")
		}
		copyDir(t, dir, crashDir)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.crashSync = nil
	if t.Failed() {
		return
	}
	if cs := s.CacheStats(); cs.Spills == 0 || cs.Flushes != 1 {
		t.Fatalf("the race did not spill during the one flush: %+v", cs)
	}

	segs, _ := listSegments(crashDir)
	tail := filepath.Join(crashDir, segs[len(segs)-1])
	fi, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 || fi.Size() <= segHeaderSize {
		t.Fatalf("crash image has %d segments, tail of %d bytes: the race did not rotate", len(segs), fi.Size())
	}
	for _, size := range []int64{fi.Size(), fi.Size() - 1, fi.Size() / 2, segHeaderSize + recHeaderSize + 1, segHeaderSize, 3} {
		img := t.TempDir()
		copyDir(t, crashDir, img)
		if err := os.Truncate(filepath.Join(img, filepath.Base(tail)), size); err != nil {
			t.Fatal(err)
		}
		r := openTestDisk(t, img, DiskOptions{})
		for i, d := range before {
			if got, err := r.Get(d); err != nil || !bytes.HasPrefix(got, []byte(fmt.Sprintf("before-%04d", i))) {
				t.Fatalf("tail cut to %d: object %d Put before the Flush: %v", size, i, err)
			}
		}
		for i, d := range during {
			got, err := r.Get(d)
			if errors.Is(err, ErrNotFound) {
				continue
			}
			if err != nil || !bytes.HasPrefix(got, []byte(fmt.Sprintf("during-%04d", i))) {
				t.Fatalf("tail cut to %d: racing object %d came back damaged: %v", size, i, err)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The live store lost nothing, and a clean close keeps the rest.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTestDisk(t, dir, DiskOptions{})
	defer r.Close()
	for _, d := range append(before, during...) {
		if _, err := r.Get(d); err != nil {
			t.Fatalf("after close and reopen: %v", err)
		}
	}
}

func TestDiskConcurrent(t *testing.T) {
	dir := t.TempDir()
	s := openTestDisk(t, dir, DiskOptions{CacheBytes: 1, SegmentBytes: 64 << 10})
	defer s.Close()
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var digests []hashutil.Digest
			for i := 0; i < perWorker; i++ {
				body := testBody(w*perWorker + i)
				digests = append(digests, s.Put(hashutil.DomainPOSLeaf, body))
				if i%17 == 0 {
					if err := s.Flush(); err != nil {
						errs <- err
						return
					}
				}
			}
			for i, d := range digests {
				got, err := s.Get(d)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, testBody(w*perWorker+i)) {
					errs <- fmt.Errorf("worker %d: wrong body at %d", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCountingPerDomain(t *testing.T) {
	for _, inner := range []struct {
		name string
		mk   func(t *testing.T) Store
	}{
		{"memory", func(t *testing.T) Store { return NewMemory() }},
		{"disk", func(t *testing.T) Store {
			s := openTestDisk(t, t.TempDir(), DiskOptions{})
			t.Cleanup(func() { s.Close() })
			return s
		}},
	} {
		t.Run(inner.name, func(t *testing.T) {
			c := NewCounting(inner.mk(t))
			leaf := []byte("leaf body....")
			blk := []byte("block body.........")
			dl := c.Put(hashutil.DomainPOSLeaf, leaf)
			db := c.Put(hashutil.DomainBlock, blk)
			if _, err := c.Get(dl); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Get(db); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Get(db); err != nil {
				t.Fatal(err)
			}
			per, other := c.PerDomain()
			if other != 0 {
				t.Fatalf("unattributed Get bytes: %d", other)
			}
			if got := per[hashutil.DomainPOSLeaf]; got.Written != int64(len(leaf)) || got.Read != int64(len(leaf)) {
				t.Fatalf("posleaf accounting: %+v", got)
			}
			if got := per[hashutil.DomainBlock]; got.Written != int64(len(blk)) || got.Read != 2*int64(len(blk)) {
				t.Fatalf("block accounting: %+v", got)
			}
		})
	}
}

func TestFaultOverDisk(t *testing.T) {
	dir := t.TempDir()
	s := openTestDisk(t, dir, DiskOptions{})
	defer s.Close()
	f := NewFault(s)
	body := testLeaf(7, 20)
	d := f.Put(hashutil.DomainPOSLeaf, body)
	if dom, ok := f.Domain(d); !ok || dom != hashutil.DomainPOSLeaf {
		t.Fatalf("Fault.Domain = %v, %v", dom, ok)
	}
	// In the header and in the entries: both are visible to verification,
	// and a corrupted body is checked, never trusted, whatever the inner
	// store knows of the digest.
	for _, off := range []int{3, len(body) - 3} {
		f.Corrupt(d, off)
		got, err := f.Get(d)
		if err != nil {
			t.Fatal(err)
		}
		if intact(hashutil.DomainPOSLeaf, got, d) {
			t.Fatalf("corruption injected at byte %d not visible to hash verification", off)
		}
		if err := f.CheckGroups(d, got, 0, 19); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("corruption injected at byte %d: group check returned %v, want ErrCorrupt", off, err)
		}
		f.Heal()
	}
	got, err := f.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	if !intact(hashutil.DomainPOSLeaf, got, d) || Address(hashutil.DomainPOSLeaf, got) != d {
		t.Fatal("healed object does not verify")
	}
	if err := f.CheckGroups(d, got, 0, 19); err != nil {
		t.Fatalf("healed object: %v", err)
	}
	f.Lose(d)
	if _, err := f.Get(d); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lost object: got %v, want ErrNotFound", err)
	}
}

// ownedStores are the stores and wrappers a tree's PutOwned can reach.
func ownedStores(t *testing.T) map[string]Store {
	disk := func() *Disk {
		s := openTestDisk(t, t.TempDir(), DiskOptions{})
		t.Cleanup(func() { s.Close() })
		return s
	}
	return map[string]Store{
		"memory":           NewMemory(),
		"disk":             disk(),
		"counting(memory)": NewCounting(NewMemory()),
		"fault(disk)":      NewFault(disk()),
		"counting(fault)":  NewCounting(NewFault(NewMemory())),
	}
}

// TestPutOwnedKeepsTheBuffer: PutOwned stores the caller's buffer itself
// — through Counting and Fault too, which still count it — under the
// address Put gives the same content.
func TestPutOwnedKeepsTheBuffer(t *testing.T) {
	for name, s := range ownedStores(t) {
		t.Run(name, func(t *testing.T) {
			buf := testLeaf(20, 30)
			d := s.PutOwned(hashutil.DomainPOSLeaf, buf)
			if want := Address(hashutil.DomainPOSLeaf, buf); d != want {
				t.Fatalf("PutOwned stored under %s, want %s", d.Short(), want.Short())
			}
			got, err := s.Get(d)
			if err != nil {
				t.Fatal(err)
			}
			if &got[0] != &buf[0] || len(got) != len(buf) {
				t.Fatal("PutOwned stored a copy of the buffer it was given")
			}
			if d2 := s.Put(hashutil.DomainPOSLeaf, append([]byte(nil), buf...)); d2 != d {
				t.Fatalf("Put of the same content stored under %s, PutOwned under %s", d2.Short(), d.Short())
			}
			if st := s.Stats(); st.Objects != 1 || st.DedupHits != 1 || st.LogicalBytes != 2*int64(len(buf)) {
				t.Fatalf("stats after an owned and a plain put of one object: %+v", st)
			}
			if c, ok := s.(*Counting); ok {
				puts, _ := c.Ops()
				per, _ := c.PerDomain()
				if puts != 2 || per[hashutil.DomainPOSLeaf].Written != 2*int64(len(buf)) {
					t.Fatalf("Counting saw %d puts, %d leaf bytes; want 2 and %d", puts, per[hashutil.DomainPOSLeaf].Written, 2*len(buf))
				}
			}
		})
	}
}

// TestPutOwnedIsTheOnlyPutThatAliases: a buffer handed to Put stays the
// caller's — scribbling on it afterwards never changes the stored object,
// in the write-back set or once flushed — and an owned buffer survives the
// disk store's flush and reopen like any other.
func TestPutOwnedIsTheOnlyPutThatAliases(t *testing.T) {
	for name, s := range ownedStores(t) {
		t.Run(name, func(t *testing.T) {
			buf := testLeaf(20, 30)
			want := append([]byte(nil), buf...)
			d := s.Put(hashutil.DomainPOSLeaf, buf)
			for i := range buf {
				buf[i] ^= 0xA5
			}
			got, err := s.Get(d)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) || !intact(hashutil.DomainPOSLeaf, got, d) {
				t.Fatal("modifying a buffer after Put changed the stored object")
			}
		})
	}
	dir := t.TempDir()
	s := openTestDisk(t, dir, DiskOptions{})
	plain, owned := testLeaf(9, 40), testLeaf(31, 40)
	wantPlain := append([]byte(nil), plain...)
	dp := s.Put(hashutil.DomainPOSLeaf, plain)
	do := s.PutOwned(hashutil.DomainPOSLeaf, owned)
	plain[len(plain)-1] ^= 0xFF
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTestDisk(t, dir, DiskOptions{})
	defer s.Close()
	for d, want := range map[hashutil.Digest][]byte{dp: wantPlain, do: owned} {
		if got, err := s.Get(d); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("object %s after reopen: %v", d.Short(), err)
		}
	}
}
