package hashutil

import (
	"testing"
	"testing/quick"
)

func TestSumDeterministic(t *testing.T) {
	a := Sum(DomainValue, []byte("hello"))
	b := Sum(DomainValue, []byte("hello"))
	if a != b {
		t.Fatalf("same input produced different digests: %s vs %s", a, b)
	}
}

func TestSumDomainSeparation(t *testing.T) {
	a := Sum(DomainLeaf, []byte("payload"))
	b := Sum(DomainInner, []byte("payload"))
	if a == b {
		t.Fatal("different domains produced equal digests")
	}
}

func TestSumPartsInjective(t *testing.T) {
	// ("ab","c") and ("a","bc") concatenate identically; length prefixes
	// must keep their digests apart.
	a := SumParts(DomainValue, []byte("ab"), []byte("c"))
	b := SumParts(DomainValue, []byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("SumParts is not injective over part boundaries")
	}
}

func TestSumPartsEmptyParts(t *testing.T) {
	a := SumParts(DomainValue)
	b := SumParts(DomainValue, []byte{})
	if a == b {
		t.Fatal("zero parts vs one empty part must differ")
	}
}

func TestParseRoundTrip(t *testing.T) {
	d := Sum(DomainValue, []byte("round trip"))
	got, err := Parse(d.String())
	if err != nil {
		t.Fatalf("Parse(%q): %v", d.String(), err)
	}
	if got != d {
		t.Fatalf("round trip mismatch: %s vs %s", got, d)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("zz"); err == nil {
		t.Error("Parse accepted non-hex input")
	}
	if _, err := Parse("abcd"); err == nil {
		t.Error("Parse accepted short input")
	}
}

func TestIsZero(t *testing.T) {
	var d Digest
	if !d.IsZero() {
		t.Error("zero digest not reported as zero")
	}
	if Sum(DomainValue, nil).IsZero() {
		t.Error("hash of empty input reported as zero")
	}
}

func TestShort(t *testing.T) {
	d := Sum(DomainValue, []byte("x"))
	if len(d.Short()) != 8 {
		t.Errorf("Short() length = %d, want 8", len(d.Short()))
	}
}

func TestSumPairOrderMatters(t *testing.T) {
	l := Sum(DomainValue, []byte("l"))
	r := Sum(DomainValue, []byte("r"))
	if SumPair(DomainInner, l, r) == SumPair(DomainInner, r, l) {
		t.Fatal("SumPair must not be commutative")
	}
}

// Property: round trip through String/Parse is the identity.
func TestQuickParseRoundTrip(t *testing.T) {
	f := func(raw [DigestSize]byte) bool {
		d := Digest(raw)
		got, err := Parse(d.String())
		return err == nil && got == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Sum is collision-free on distinct small inputs in practice
// (regression guard against accidental truncation of the input).
func TestQuickSumDistinct(t *testing.T) {
	f := func(a, b []byte) bool {
		if string(a) == string(b) {
			return true
		}
		return Sum(DomainValue, a) != Sum(DomainValue, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHasherEqualsSum: a reused Hasher returns what Sum returns, whatever
// it hashed before, and neither it nor SumPair allocates per input.
func TestHasherEqualsSum(t *testing.T) {
	var h Hasher
	for _, data := range [][]byte{nil, []byte("x"), make([]byte, 2000), []byte("x")} {
		if h.Sum(DomainPOSEntry, data) != Sum(DomainPOSEntry, data) {
			t.Fatalf("Hasher.Sum differs from Sum on %d bytes", len(data))
		}
	}
	a, b := Sum(DomainValue, []byte("a")), Sum(DomainValue, []byte("b"))
	want := Sum(DomainPOSInner, append(append([]byte(nil), a[:]...), b[:]...))
	if SumPair(DomainPOSInner, a, b) != want {
		t.Fatal("SumPair is not the hash of tag, left, right")
	}
	data, large := make([]byte, 137), make([]byte, 2000)
	if n := testing.AllocsPerRun(100, func() {
		var fresh Hasher
		fresh.Sum(DomainPOSEntry, data)
		h.Sum(DomainPOSEntry, large)
		SumPair(DomainPOSInner, a, b)
	}); n != 0 {
		t.Fatalf("%v allocations for a small input on a fresh Hasher, a large one on a used Hasher and a pair", n)
	}
}
