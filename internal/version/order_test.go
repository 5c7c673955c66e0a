package version

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randomVersion draws a vector over a few short names with small
// counters and a clock from a small set, so random pairs are often
// equal, dominating, concurrent, or concurrent at the same clock.
func randomVersion(rng *rand.Rand) Version {
	names := []string{"n0", "n1", "n2", "node10", "a:b"}
	v := Version{VV: Vector{}, Clock: int64(rng.Intn(3)) - 1}
	for _, n := range names {
		if rng.Intn(2) == 0 {
			v.VV[n] = uint64(1 + rng.Intn(3))
		}
	}
	return v
}

// TestVersionOrderProperty ties the view to the map form: over random
// pairs, Header.Compare and Header.Newer answer exactly as Compare and
// Newer do on the decoded maps, and every stamp round-trips.
func TestVersionOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[Ordering]int{}
	sameClockConcurrent := 0
	for i := 0; i < 20000; i++ {
		a, b := randomVersion(rng), randomVersion(rng)
		if rng.Intn(4) == 0 {
			b = a.Next([]string{"n0", "n1", "zz"}[rng.Intn(3)], a.Clock)
		}
		payload := strings.Repeat("\x01v", rng.Intn(3))
		rawA, rawB := Encode(a, payload), EncodeTombstone(b)
		ha, pa, err := ParseHeader(rawA)
		if err != nil || pa != payload || ha.Tombstone {
			t.Fatalf("ParseHeader(Encode(%+v, %q)) = %q, %v", a, payload, pa, err)
		}
		hb, pb, err := ParseHeader(rawB)
		if err != nil || pb != "" || !hb.Tombstone {
			t.Fatalf("ParseHeader(EncodeTombstone(%+v)) = %q, %v", b, pb, err)
		}
		da, value, deleted, err := Decode(rawA)
		if err != nil || value != payload || deleted || da.Clock != a.Clock || Compare(da.VV, a.VV) != Equal {
			t.Fatalf("Decode(Encode(%+v)) = %+v, %q, %v, %v", a, da, value, deleted, err)
		}
		if Encode(da, value) != rawA {
			t.Fatalf("re-encode of %+v is not byte-identical", a)
		}

		want := Compare(a.VV, b.VV)
		seen[want]++
		if want == Concurrent && a.Clock == b.Clock {
			sameClockConcurrent++
		}
		if got := ha.Compare(hb); got != want {
			t.Fatalf("Header.Compare(%+v, %+v) = %v, map form says %v", a, b, got, want)
		}
		if got, want := ha.Newer(hb), Newer(a, b); got != want {
			t.Fatalf("Header.Newer(%+v, %+v) = %v, map form says %v", a, b, got, want)
		}
		if got, want := hb.Newer(ha), Newer(b, a); got != want {
			t.Fatalf("Header.Newer(%+v, %+v) = %v, map form says %v", b, a, got, want)
		}
		if want != Equal && Newer(a, b) == Newer(b, a) {
			t.Fatalf("total order picks no single winner for %+v / %+v", a, b)
		}
	}
	for _, o := range []Ordering{Equal, Dominates, Dominated, Concurrent} {
		if seen[o] == 0 {
			t.Fatalf("no %v pair drawn: %v", o, seen)
		}
	}
	if sameClockConcurrent == 0 {
		t.Fatal("no concurrent pair at the same clock drawn")
	}
}

// FuzzDecodeVersion throws arbitrary bytes at the stamp parser and
// Decode: neither may panic, they must agree, a value without the
// magic byte is ErrTextStamp, and anything that parses re-encodes to
// the same bytes.
func FuzzDecodeVersion(f *testing.F) {
	v := Version{VV: Vector{"node0": 41, "node2": 7}, Clock: 1754550000123456789}
	for _, s := range []string{
		Encode(v, "value"),
		Encode(v, ""),
		Encode(Version{}, "x"),
		EncodeTombstone(v),
		Encode(v, EncodeTombstone(v)),
		"",
		"\x01",
		"n0:3,n2:1@1754550000123456789 v value",
		"n0:1@5 t",
		"1754550000 h n0:1@5 v payload",
		// Writer-slot stamps: an 8-byte client name with a one- and a
		// three-byte counter.
		EncodeVector(Single("AbCd-_x9", 1), 1754550000123456789, false, "value"),
		EncodeVector(Single("AbCd-_x9", 1<<20), 1754550000123456789, true, ""),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		h, payload, err := ParseHeader(raw)
		dv, value, deleted, derr := Decode(raw)
		if (err == nil) != (derr == nil) {
			t.Fatalf("ParseHeader error %v, Decode error %v", err, derr)
		}
		if (raw == "" || raw[0] != magic) && !errors.Is(err, ErrTextStamp) {
			t.Fatalf("ParseHeader(%q) error = %v, want ErrTextStamp", raw, err)
		}
		if err != nil {
			return
		}
		if re := EncodeVector(h.vec, h.Clock, h.Tombstone, payload); re != raw {
			t.Fatalf("EncodeVector of %q's header gave %q", raw, re)
		}
		re := Encode(dv, value)
		if deleted {
			re = EncodeTombstone(dv)
		}
		if re != raw || value != payload || deleted != h.Tombstone {
			t.Fatalf("Decode(%q) re-encodes to %q", raw, re)
		}
		if h.Compare(h) != Equal || h.Newer(h) {
			t.Fatalf("%q is not equal to itself", raw)
		}
		next, _, err := ParseHeader(Encode(dv.Next("node1", h.Clock), ""))
		if err != nil || next.Compare(h) != Dominates {
			t.Fatalf("Next of %q does not dominate it (%v)", raw, err)
		}
		for w, n := range dv.VV {
			if len(dv.VV) == 1 && n < math.MaxUint64 {
				next, _, err := ParseHeader(EncodeVector(Single(w, n+1), h.Clock, false, ""))
				if err != nil || next.Compare(h) != Dominates {
					t.Fatalf("writer %q's next stamp does not dominate %q (%v)", w, raw, err)
				}
			}
		}
	})
}

var benchSink int

// BenchmarkVersion times the per-answer version work of a quorum read
// and the per-write stamping, on a two-entry vector and a 256-byte
// value: decode is the map form, parse and view-compare the in-place
// view, next-encode a client's writer stamp plus the stored encoding.
func BenchmarkVersion(b *testing.B) {
	v := Version{VV: Vector{"node0": 41, "node2": 7}, Clock: 1754550000123456789}
	value := strings.Repeat("x", 256)
	older, newer := Encode(v, value), Encode(v.Next("node0", v.Clock+1), value)
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, val, _, _ := Decode(newer)
			benchSink += len(val)
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, val, _ := ParseHeader(newer)
			benchSink += len(val)
		}
	})
	b.Run("view-compare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ha, _, _ := ParseHeader(newer)
			hb, _, _ := ParseHeader(older)
			if ha.Newer(hb) {
				benchSink++
			}
		}
	})
	b.Run("next-encode", func(b *testing.B) {
		h, _, _ := ParseHeader(older)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink += len(EncodeVector(Single("AbCd-_x9", uint64(i)+1), h.Clock, false, value))
		}
	})
}
