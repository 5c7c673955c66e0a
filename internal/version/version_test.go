package version

import (
	"errors"
	"strings"
	"testing"
)

func TestStampRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		v    Version
	}{
		{"single", Version{VV: Vector{"n0": 1}, Clock: 42}},
		{"multi", Version{VV: Vector{"n0": 3, "n2": 1, "n10": 7}, Clock: 1754550000123456789}},
		{"zero clock", Version{VV: Vector{"a": 9}, Clock: 0}},
		{"negative clock", Version{VV: Vector{"a": 1}, Clock: -5}},
		{"big counter", Version{VV: Vector{"x": 1<<63 + 11}, Clock: 1}},
		{"dashed node names", Version{VV: Vector{"node-1": 2, "node-2": 4}, Clock: 99}},
		{"delimiter node names", Version{VV: Vector{"a:b": 2, "c@d,e": 4}, Clock: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := Encode(tc.v, "payload")
			h, payload, err := ParseHeader(raw)
			if err != nil {
				t.Fatalf("ParseHeader(%q): %v", raw, err)
			}
			got := h.Version()
			if payload != "payload" || got.Clock != tc.v.Clock || Compare(got.VV, tc.v.VV) != Equal {
				t.Fatalf("round trip %q: got %+v %q, want %+v", raw, got, payload, tc.v)
			}
			if re := Encode(got, payload); re != raw {
				t.Fatalf("re-encode of %q gave %q", raw, re)
			}
			if re := EncodeVector(h.vec, h.Clock, false, payload); re != raw {
				t.Fatalf("EncodeVector of %q's header gave %q", raw, re)
			}
		})
	}
}

func TestStampCanonical(t *testing.T) {
	// Entry order is sorted regardless of map iteration order, and zero
	// counters carry no history, so equal versions always encode
	// byte-identically.
	v := Version{VV: Vector{"b": 2, "a": 1, "c": 3, "z": 0}, Clock: 7}
	want := "\x01v\x00\x00\x00\x00\x00\x00\x00\x07\x03\x01a\x01\x01b\x02\x01c\x03x"
	for i := 0; i < 32; i++ {
		if got := Encode(v, "x"); got != want {
			t.Fatalf("Encode() = %q, want %q", got, want)
		}
	}
	if got := EncodeVector(Bump(Bump(Bump(Bump(Bump(Bump("", "c"), "b"), "c"), "a"), "c"), "b"), 7, false, "x"); got != want {
		t.Fatalf("Bump chain encodes %q, want %q", got, want)
	}
}

// stampBytes assembles a stamp by hand from its fields, so malformed
// encodings can be written down directly.
func stampBytes(kind byte, rest ...string) string {
	return string([]byte{magic, kind, 0, 0, 0, 0, 0, 0, 0, 5}) + strings.Join(rest, "")
}

func TestParseStampMalformed(t *testing.T) {
	cases := []struct {
		name  string
		stamp string
	}{
		{"empty", ""},
		{"no clock", "\x01v"},
		{"no components", stampBytes('v')},
		{"bad clock", "\x01v\x00\x00\x00"},
		{"clock overflow", stampBytes('v', "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02")},
		{"empty component", stampBytes('v', "\x01", "\x00", "\x01")},
		{"component without counter", stampBytes('v', "\x01", "\x02n0")},
		{"component without node", stampBytes('v', "\x01", "\x05n0\x01")},
		{"bad counter", stampBytes('v', "\x01", "\x02n0", "\x81\x00")},
		{"zero counter", stampBytes('v', "\x01", "\x02n0", "\x00")},
		{"negative counter", stampBytes('v', "\x01", "\x02n0", "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02")},
		{"duplicate node", stampBytes('v', "\x02", "\x02n0\x01", "\x02n0\x02")},
		{"just separators", stampBytes('v', "\x02", "\x02n1\x01", "\x02n0\x02")},
		{"trailing comma", stampBytes('v', "\x02", "\x02n0\x01")},
		{"overlong count", stampBytes('v', "\x81\x00", "\x02n0\x01")},
		{"unknown kind", stampBytes('x', "\x01", "\x02n0\x01")},
		{"tombstone with payload", stampBytes('t', "\x01", "\x02n0\x01", "payload")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if h, _, err := ParseHeader(tc.stamp); err == nil {
				t.Fatalf("ParseHeader(%q) = %+v, want error", tc.stamp, h)
			}
			if _, _, _, err := Decode(tc.stamp); err == nil {
				t.Fatalf("Decode(%q) succeeded, want error", tc.stamp)
			}
		})
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		name string
		a, b Vector
		want Ordering
	}{
		{"both empty", Vector{}, Vector{}, Equal},
		{"nil vs nil", nil, nil, Equal},
		{"equal single", Vector{"n0": 2}, Vector{"n0": 2}, Equal},
		{"equal multi", Vector{"n0": 2, "n1": 5}, Vector{"n1": 5, "n0": 2}, Equal},
		{"dominates by counter", Vector{"n0": 3}, Vector{"n0": 2}, Dominates},
		{"dominated by counter", Vector{"n0": 1}, Vector{"n0": 2}, Dominated},
		{"dominates by extra node", Vector{"n0": 2, "n1": 1}, Vector{"n0": 2}, Dominates},
		{"dominated by extra node", Vector{"n0": 2}, Vector{"n0": 2, "n1": 1}, Dominated},
		{"dominates empty", Vector{"n0": 1}, Vector{}, Dominates},
		{"dominated by any", Vector{}, Vector{"n9": 1}, Dominated},
		{"concurrent disjoint", Vector{"n0": 1}, Vector{"n1": 1}, Concurrent},
		{"concurrent crossed counters", Vector{"n0": 2, "n1": 1}, Vector{"n0": 1, "n1": 2}, Concurrent},
		{"concurrent extra on each side", Vector{"n0": 1, "n1": 1}, Vector{"n0": 1, "n2": 1}, Concurrent},
		{"dominates across many slots", Vector{"a": 2, "b": 2, "c": 2}, Vector{"a": 1, "b": 2, "c": 2}, Dominates},
	}
	inverse := map[Ordering]Ordering{Equal: Equal, Concurrent: Concurrent, Dominates: Dominated, Dominated: Dominates}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Compare(tc.a, tc.b); got != tc.want {
				t.Fatalf("Compare(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
			if got := Compare(tc.b, tc.a); got != inverse[tc.want] {
				t.Fatalf("Compare(%v, %v) = %v, want %v (symmetry)", tc.b, tc.a, got, inverse[tc.want])
			}
			ha, hb := header(t, Version{VV: tc.a}), header(t, Version{VV: tc.b})
			if got := ha.Compare(hb); got != tc.want {
				t.Fatalf("Header.Compare(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
		})
	}
}

// header encodes v and views the result.
func header(t testing.TB, v Version) Header {
	t.Helper()
	h, _, err := ParseHeader(Encode(v, ""))
	if err != nil {
		t.Fatalf("ParseHeader(Encode(%+v)): %v", v, err)
	}
	return h
}

func TestNewerTotalOrder(t *testing.T) {
	cases := []struct {
		name string
		a, b Version
		want bool // Newer(a, b)
	}{
		{"dominates wins despite older clock",
			Version{VV: Vector{"n0": 2}, Clock: 1}, Version{VV: Vector{"n0": 1}, Clock: 100}, true},
		{"dominated loses despite newer clock",
			Version{VV: Vector{"n0": 1}, Clock: 100}, Version{VV: Vector{"n0": 2}, Clock: 1}, false},
		{"equal vectors are never newer",
			Version{VV: Vector{"n0": 1}, Clock: 5}, Version{VV: Vector{"n0": 1}, Clock: 5}, false},
		{"concurrent resolves by clock",
			Version{VV: Vector{"n0": 1}, Clock: 10}, Version{VV: Vector{"n1": 1}, Clock: 5}, true},
		{"concurrent loses by clock",
			Version{VV: Vector{"n0": 1}, Clock: 5}, Version{VV: Vector{"n1": 1}, Clock: 10}, false},
		{"concurrent same clock falls back to stamp order",
			Version{VV: Vector{"n1": 1}, Clock: 7}, Version{VV: Vector{"n0": 1}, Clock: 7}, true},
		{"anything beats zero",
			Version{VV: Vector{"n0": 1}, Clock: 0}, Version{}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Newer(tc.a, tc.b); got != tc.want {
				t.Fatalf("Newer(%+v, %+v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
			// Antisymmetry: at most one direction is "newer".
			if tc.want && Newer(tc.b, tc.a) {
				t.Fatalf("both Newer(a,b) and Newer(b,a) for %+v / %+v", tc.a, tc.b)
			}
			if got := header(t, tc.a).Newer(header(t, tc.b)); got != tc.want {
				t.Fatalf("Header.Newer(%+v, %+v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
		})
	}
	// Exactly one of Newer(a,b) / Newer(b,a) holds for distinct stamps.
	a := Version{VV: Vector{"n0": 1}, Clock: 7}
	b := Version{VV: Vector{"n1": 1}, Clock: 7}
	if Newer(a, b) == Newer(b, a) {
		t.Fatalf("total order must pick exactly one winner for distinct concurrent stamps")
	}
	// The zero Header is "never written": every stored version beats it.
	if !header(t, a).Newer(Header{}) || (Header{}).Newer(header(t, a)) {
		t.Fatalf("a stored version must beat the zero Header")
	}
}

func TestMerge(t *testing.T) {
	cases := []struct {
		name string
		a, b Vector
		want Vector
	}{
		{"empty with empty", Vector{}, Vector{}, Vector{}},
		{"disjoint union", Vector{"n0": 1}, Vector{"n1": 2}, Vector{"n0": 1, "n1": 2}},
		{"pointwise max", Vector{"n0": 3, "n1": 1}, Vector{"n0": 1, "n1": 4}, Vector{"n0": 3, "n1": 4}},
		{"subset", Vector{"n0": 2}, Vector{"n0": 2, "n1": 1}, Vector{"n0": 2, "n1": 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Merge(tc.a, tc.b)
			if Compare(got, tc.want) != Equal {
				t.Fatalf("Merge(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
			// The merge dominates-or-equals both inputs.
			for _, in := range []Vector{tc.a, tc.b} {
				if o := Compare(got, in); o != Equal && o != Dominates {
					t.Fatalf("Merge(%v, %v) = %v does not cover input %v (%v)", tc.a, tc.b, got, in, o)
				}
			}
		})
	}
}

func TestNextDominates(t *testing.T) {
	v := Version{}
	vec := ""
	for i, node := range []string{"n0", "n0", "n1", "n2", "n0"} {
		nv := v.Next(node, int64(i+1))
		if o := nv.Compare(v); o != Dominates {
			t.Fatalf("step %d: Next version %+v does not dominate %+v (%v)", i, nv, v, o)
		}
		if !Newer(nv, v) {
			t.Fatalf("step %d: Next version not Newer than predecessor", i)
		}
		// Bump is Next on the encoded vector.
		vec = Bump(vec, node)
		if got, want := EncodeVector(vec, nv.Clock, false, ""), Encode(nv, ""); got != want {
			t.Fatalf("step %d: Bump encodes %q, Next encodes %q", i, got, want)
		}
		v = nv
	}
	if v.VV["n0"] != 3 || v.VV["n1"] != 1 || v.VV["n2"] != 1 {
		t.Fatalf("accumulated vector wrong: %v", v.VV)
	}
	// Next does not mutate its receiver.
	base := Version{VV: Vector{"n0": 1}, Clock: 1}
	_ = base.Next("n0", 2)
	if base.VV["n0"] != 1 {
		t.Fatalf("Next mutated its receiver: %v", base.VV)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	v := Version{VV: Vector{"n0": 3, "n1": 5}, Clock: 1234}
	cases := []struct {
		name    string
		raw     string
		value   string
		deleted bool
	}{
		{"plain value", Encode(v, "hello"), "hello", false},
		{"empty value", Encode(v, ""), "", false},
		{"value with spaces", Encode(v, "a b  c"), "a b  c", false},
		{"value resembling a tombstone", Encode(v, "t"), "t", false},
		{"value resembling an encoding", Encode(v, Encode(v, "x")), Encode(v, "x"), false},
		{"value starting with the magic byte", Encode(v, "\x01t"), "\x01t", false},
		{"tombstone", EncodeTombstone(v), "", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gv, value, deleted, err := Decode(tc.raw)
			if err != nil {
				t.Fatalf("Decode(%q): %v", tc.raw, err)
			}
			if value != tc.value || deleted != tc.deleted {
				t.Fatalf("Decode(%q) = (%q, %v), want (%q, %v)", tc.raw, value, deleted, tc.value, tc.deleted)
			}
			if gv.Compare(v) != Equal || gv.Clock != v.Clock {
				t.Fatalf("Decode(%q) version = %+v, want %+v", tc.raw, gv, v)
			}
			// Byte-identical re-encode: WAL replay depends on this.
			var re string
			if deleted {
				re = EncodeTombstone(gv)
			} else {
				re = Encode(gv, value)
			}
			if re != tc.raw {
				t.Fatalf("re-encode of %q gave %q", tc.raw, re)
			}
		})
	}
}

// TestDecodeMalformed feeds Decode the text stamps and other values
// the store held before the binary header: each must fail with
// ErrTextStamp, never be read as a version.
func TestDecodeMalformed(t *testing.T) {
	cases := []struct {
		name string
		raw  string
	}{
		{"empty", ""},
		{"one part", "oops"},
		{"bare stamp", "n0:1@5"},
		{"unknown marker", "n0:1@5 x payload"},
		{"value without payload", "n0:1@5 v"},
		{"tombstone with payload", "n0:1@5 t payload"},
		{"bad stamp", "n0@5 v payload"},
		{"legacy integer seq", "17 v payload"},
		{"legacy tombstone", "17 t"},
		{"hint wrapper", "1754550000 h n0:1@5 v payload"},
		{"text value", "n0:3,n2:1@1754550000123456789 v payload"},
		{"text tombstone", "n0:3@1754550000123456789 t"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if v, value, deleted, err := Decode(tc.raw); !errors.Is(err, ErrTextStamp) {
				t.Fatalf("Decode(%q) = (%+v, %q, %v, %v), want ErrTextStamp", tc.raw, v, value, deleted, err)
			}
			if _, _, err := ParseHeader(tc.raw); !errors.Is(err, ErrTextStamp) {
				t.Fatalf("ParseHeader(%q) error = %v, want ErrTextStamp", tc.raw, err)
			}
		})
	}
}
