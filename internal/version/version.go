// Package version is the cluster's value-versioning unit: a per-key
// version vector (node → counter) plus a wall-clock tiebreak, and the
// stored-value encoding that carries it.
//
// The vector replaces the cluster-global LWW sequence: each write is
// stamped by its coordinator with the key's last-seen vector bumped in
// the coordinator's own slot, so causally ordered writes compare as
// Dominates/Dominated and only genuinely concurrent writes (two
// coordinators that never saw each other's stamps, e.g. across a
// partition) compare as Concurrent. Concurrent versions are resolved
// deterministically by Newer's total order — wall-clock
// last-writer-wins, then a comparison of the canonical vector bytes so
// two stamps assigned in the same nanosecond still order identically on
// every replica.
//
// A stored value is a binary stamp followed by the payload:
//
//	magic  0x01, a control byte: no text stamp, hint or node name starts with one
//	kind   'v' live value, 't' tombstone (no payload)
//	clock  8 bytes, big-endian two's-complement unix nanoseconds
//	count  uvarint number of vector entries
//	entry  uvarint name length, name, uvarint counter — sorted by name
//	payload the rest of the value
//
// The encoding is canonical: names strictly ascending, every uvarint
// minimal, every counter at least 1. Equal versions therefore encode
// byte-identically, and a value that parses re-encodes to the same
// bytes.
//
// Two forms read a stamp. Header views it in place, with no allocation:
// the store's SETV compare, quorum reads and repair use it. Decode
// builds the map form, Version, for callers that inspect or construct
// vectors.
package version

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Ordering is the outcome of comparing two version vectors.
type Ordering int

const (
	// Equal: identical vectors — same causal history.
	Equal Ordering = iota
	// Dominates: the left vector has seen everything the right has, and more.
	Dominates
	// Dominated: the right vector has seen everything the left has, and more.
	Dominated
	// Concurrent: each side has writes the other never saw.
	Concurrent
)

// String names the ordering for logs and counters.
func (o Ordering) String() string {
	switch o {
	case Equal:
		return "equal"
	case Dominates:
		return "dominates"
	case Dominated:
		return "dominated"
	case Concurrent:
		return "concurrent"
	}
	return fmt.Sprintf("ordering(%d)", int(o))
}

const (
	magic         byte = 0x01
	kindValue     byte = 'v'
	kindTombstone byte = 't'
	// fixedLen is the magic, kind and clock bytes ahead of the vector.
	fixedLen = 2 + 8
)

var (
	// ErrTextStamp reports a value that does not start with the binary
	// stamp's magic byte: a text stamp ("n0:3@<nanos> v <value>")
	// written before the binary header, or unversioned bytes. Such a
	// value is never read as a version; an incoming SETV replaces it.
	ErrTextStamp = errors.New("version: not a binary stamp (text-stamped or unversioned value)")
	// ErrMalformed reports a value that starts with the magic byte but
	// whose stamp is truncated or not canonical.
	ErrMalformed = errors.New("version: malformed binary stamp")
)

// Vector is a per-key version vector: how many writes each coordinator
// has stamped onto this key's causal history.
type Vector map[string]uint64

// Version is one stamped write: the vector plus the coordinator's wall
// clock at assignment (unix nanoseconds), used only to break ties
// between concurrent vectors.
type Version struct {
	VV    Vector
	Clock int64
}

// IsZero reports whether v is the zero Version — "no write ever seen",
// which every real version dominates.
func (v Version) IsZero() bool { return len(v.VV) == 0 && v.Clock == 0 }

// Next returns the successor version a coordinator assigns: v's vector
// with node's slot bumped, stamped at clock. The receiver is not
// mutated.
func (v Version) Next(node string, clock int64) Version {
	nv := make(Vector, len(v.VV)+1)
	for n, c := range v.VV {
		nv[n] = c
	}
	nv[node]++
	return Version{VV: nv, Clock: clock}
}

// Compare relates two vectors causally. The clocks play no part: two
// versions with the same vector are Equal even if stamped at different
// times.
func Compare(a, b Vector) Ordering {
	var aAhead, bAhead bool
	for n, ac := range a {
		switch bc := b[n]; {
		case ac > bc:
			aAhead = true
		case ac < bc:
			bAhead = true
		}
	}
	for n, bc := range b {
		if bc > a[n] {
			bAhead = true
		}
	}
	return ordering(aAhead, bAhead)
}

func ordering(aAhead, bAhead bool) Ordering {
	switch {
	case aAhead && bAhead:
		return Concurrent
	case aAhead:
		return Dominates
	case bAhead:
		return Dominated
	}
	return Equal
}

// Compare relates v to o causally (vector comparison only).
func (v Version) Compare(o Version) Ordering { return Compare(v.VV, o.VV) }

// Newer reports whether a should replace b under the total order every
// replica resolves conflicts with: causal dominance first, then the
// wall clock, then the canonical vector bytes so same-nanosecond
// concurrent writes still pick one deterministic winner everywhere.
// Equal versions are not newer than each other. It agrees with
// Header.Newer on the encoded forms.
func Newer(a, b Version) bool {
	switch Compare(a.VV, b.VV) {
	case Dominates:
		return true
	case Dominated, Equal:
		return false
	}
	if a.Clock != b.Clock {
		return a.Clock > b.Clock
	}
	return string(appendVector(nil, a.VV)) > string(appendVector(nil, b.VV))
}

// Merge returns the pointwise maximum of two vectors — the smallest
// vector that dominates (or equals) both inputs.
func Merge(a, b Vector) Vector {
	m := make(Vector, len(a)+len(b))
	for n, c := range a {
		m[n] = c
	}
	for n, c := range b {
		if c > m[n] {
			m[n] = c
		}
	}
	return m
}

// Encode renders a stored live value: the stamp of v, then value.
func Encode(v Version, value string) string {
	return EncodeVector(string(appendVector(nil, v.VV)), v.Clock, false, value)
}

// EncodeTombstone renders a stored deletion marker: the stamp of v
// with the tombstone kind and no payload.
func EncodeTombstone(v Version) string {
	return EncodeVector(string(appendVector(nil, v.VV)), v.Clock, true, "")
}

// Decode splits a stored value into its version, payload, and
// tombstone flag. A value that does not start with the binary stamp
// fails with ErrTextStamp, a broken stamp with ErrMalformed.
func Decode(raw string) (v Version, value string, deleted bool, err error) {
	h, value, err := ParseHeader(raw)
	if err != nil {
		return Version{}, "", false, err
	}
	return h.Version(), value, h.Tombstone, nil
}

// Header is a stored value's stamp viewed in place: ParseHeader slices
// it out of the value without copying, so comparing two stored values
// allocates nothing. The zero Header is "no write ever seen", which
// every real version dominates.
type Header struct {
	// vec is the canonical vector section, entry count first; only
	// ParseHeader sets it, after validating it.
	vec       string
	Clock     int64
	Tombstone bool
}

// ParseHeader splits a stored value into its stamp and its payload (a
// substring of raw; empty for a tombstone). It validates the whole
// stamp, so the Header's walks need no further checks.
func ParseHeader(raw string) (Header, string, error) {
	if len(raw) == 0 || raw[0] != magic {
		return Header{}, "", ErrTextStamp
	}
	if len(raw) < fixedLen+1 {
		return Header{}, "", fmt.Errorf("%w: %d-byte value", ErrMalformed, len(raw))
	}
	h := Header{Clock: int64(bigEndian64(raw[2:fixedLen]))}
	switch raw[1] {
	case kindValue:
	case kindTombstone:
		h.Tombstone = true
	default:
		return Header{}, "", fmt.Errorf("%w: unknown kind %q", ErrMalformed, raw[1])
	}
	n, off, ok := uvarint(raw, fixedLen)
	if !ok {
		return Header{}, "", fmt.Errorf("%w: bad entry count", ErrMalformed)
	}
	var prev string
	for i := uint64(0); i < n; i++ {
		l, next, ok := uvarint(raw, off)
		if !ok || l == 0 || l > uint64(len(raw)-next) {
			return Header{}, "", fmt.Errorf("%w: bad name in entry %d", ErrMalformed, i)
		}
		name := raw[next : next+int(l)]
		if i > 0 && name <= prev {
			return Header{}, "", fmt.Errorf("%w: entry %d out of order", ErrMalformed, i)
		}
		c, next, ok := uvarint(raw, next+int(l))
		if !ok || c == 0 {
			return Header{}, "", fmt.Errorf("%w: bad counter in entry %d", ErrMalformed, i)
		}
		prev, off = name, next
	}
	h.vec = raw[fixedLen:off]
	payload := raw[off:]
	if h.Tombstone && payload != "" {
		return Header{}, "", fmt.Errorf("%w: tombstone with a payload", ErrMalformed)
	}
	return h, payload, nil
}

// Version builds the map form of h.
func (h Header) Version() Version {
	v := Version{VV: make(Vector), Clock: h.Clock}
	for c := newCursor(h.vec); ; {
		name, n, ok := c.next()
		if !ok {
			return v
		}
		v.VV[name] = n
	}
}

// Compare relates h to o causally with one merge walk over their
// sorted entries; it agrees with the map form's Compare.
func (h Header) Compare(o Header) Ordering {
	return compareVectors(h.vec, o.vec)
}

// Newer reports whether h should replace o under the total order; it
// agrees with the map form's Newer.
func (h Header) Newer(o Header) bool {
	switch compareVectors(h.vec, o.vec) {
	case Dominates:
		return true
	case Dominated, Equal:
		return false
	}
	if h.Clock != o.Clock {
		return h.Clock > o.Clock
	}
	return h.vec > o.vec
}

// compareVectors walks two canonical vector sections side by side. A
// name only one side has counts as 0 on the other; every stored
// counter is at least 1, so such an entry puts its side ahead.
func compareVectors(a, b string) Ordering {
	ca, cb := newCursor(a), newCursor(b)
	na, xa, okA := ca.next()
	nb, xb, okB := cb.next()
	var aAhead, bAhead bool
	for (okA || okB) && !(aAhead && bAhead) {
		switch {
		case !okB || okA && na < nb:
			aAhead = true
			na, xa, okA = ca.next()
		case !okA || nb < na:
			bAhead = true
			nb, xb, okB = cb.next()
		default:
			aAhead = aAhead || xa > xb
			bAhead = bAhead || xb > xa
			na, xa, okA = ca.next()
			nb, xb, okB = cb.next()
		}
	}
	return ordering(aAhead, bAhead)
}

// Bump returns the vector section vec with node's counter incremented,
// inserted at 1 if vec has no entry for it: the vector a coordinator
// stamps onto its next write. vec is "" (no write yet) or an earlier
// Bump's result. The result is one allocation of exactly its length,
// since the client's key table keeps it.
func Bump(vec, node string) string {
	count, has := uint64(0), false
	for c := newCursor(vec); ; count++ {
		name, _, ok := c.next()
		if !ok {
			break
		}
		has = has || name == node
	}
	if !has {
		count++
	}
	var buf [64]byte
	b := binary.AppendUvarint(buf[:0], count)
	inserted := false
	for c := newCursor(vec); ; {
		name, n, ok := c.next()
		if !inserted && (!ok || node <= name) {
			inserted = true
			if ok && name == node {
				b = appendEntry(b, name, n+1)
				continue
			}
			b = appendEntry(b, node, 1)
		}
		if !ok {
			return string(b)
		}
		b = appendEntry(b, name, n)
	}
}

func appendEntry(b []byte, name string, n uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(name)))
	b = append(b, name...)
	return binary.AppendUvarint(b, n)
}

// EncodeVector renders a stored value from its parts: the vector
// section (from Bump), the clock, the kind, and the payload, which a
// tombstone must leave empty. The value is one allocation.
func EncodeVector(vec string, clock int64, tombstone bool, value string) string {
	if vec == "" {
		vec = "\x00" // the empty vector: zero entries
	}
	kind := kindValue
	if tombstone {
		kind = kindTombstone
	}
	var b strings.Builder
	b.Grow(fixedLen + len(vec) + len(value))
	b.WriteByte(magic)
	b.WriteByte(kind)
	for shift := 56; shift >= 0; shift -= 8 {
		b.WriteByte(byte(uint64(clock) >> shift))
	}
	b.WriteString(vec)
	b.WriteString(value)
	return b.String()
}

// appendVector appends the canonical vector section of vv. Zero
// counters carry no history and are left out, as a decoded vector
// never has them.
func appendVector(dst []byte, vv Vector) []byte {
	var arr [8]string
	names := arr[:0]
	for n, c := range vv {
		if c > 0 {
			names = append(names, n)
		}
	}
	slices.Sort(names)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, n := range names {
		dst = appendEntry(dst, n, vv[n])
	}
	return dst
}

// cursor walks the entries of a canonical vector section. It trusts
// the section: ParseHeader validated it, or Bump built it.
type cursor struct {
	s   string
	off int
}

func newCursor(vec string) cursor {
	if vec == "" {
		return cursor{}
	}
	_, off, _ := uvarint(vec, 0)
	return cursor{s: vec, off: off}
}

// next returns the following entry, or ok=false at the end.
func (c *cursor) next() (name string, n uint64, ok bool) {
	if c.off >= len(c.s) {
		return "", 0, false
	}
	l, off, _ := uvarint(c.s, c.off)
	name = c.s[off : off+int(l)]
	n, c.off, _ = uvarint(c.s, off+int(l))
	return name, n, true
}

// uvarint reads a minimally encoded uvarint from s at off and returns
// it with the offset just past it. ok is false for a truncated,
// overlong or overflowing encoding, so every accepted value has
// exactly one encoding.
func uvarint(s string, off int) (x uint64, next int, ok bool) {
	if off < len(s) && s[off] < 0x80 {
		return uint64(s[off]), off + 1, true // the common one-byte case
	}
	return uvarintLong(s, off)
}

func uvarintLong(s string, off int) (x uint64, next int, ok bool) {
	var shift uint
	for i := off; i < len(s) && i-off < binary.MaxVarintLen64; i++ {
		b := s[i]
		if b < 0x80 {
			if (b == 0 && i > off) || (i-off == binary.MaxVarintLen64-1 && b > 1) {
				return 0, 0, false
			}
			return x | uint64(b)<<shift, i + 1, true
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, 0, false
}

func bigEndian64(s string) uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x = x<<8 | uint64(s[i])
	}
	return x
}
