package sockets

import (
	"encoding/binary"
	"strings"

	"repro/internal/db"
	"repro/internal/pthread"
)

// store is a server's key-value store, laid out in ring order. The
// ring-position space is cut into stripes, one arc per stripe, each
// guarded by its own readers-writer lock. A stripe is an array of
// cells that cuts its arc again into equal sub-arcs, and a cell holds
// every record whose ring position falls in its sub-arc, packed into
// one immutable string of length-prefixed (key, value) records:
//
//	record = uvarint(len(key)) uvarint(len(value)) key value
//
// One allocation, sized exactly, carries a few records, where a Go map
// spends a slot, a key allocation and a size-class-rounded value
// allocation on each. Cells hold no pointers, so the collector has
// nothing to trace inside them.
//
// Cells are copy-on-write: a set or del builds the cell's replacement
// and swaps it into the array under the stripe's write lock. A cell is
// never written again once built, so a key or value handed out as a
// view into one (through readOnlyBytes for GET and MGET, as a string
// for SCAN and the snapshot capture) stays valid after the key is
// overwritten.
//
// Because a stripe's cells are in ring order, a range of ring positions
// — a span of Merkle buckets — lies in a contiguous run of cells, and
// scan visits only those.
type store struct {
	stripes []stripe
}

// stripe is one arc of the ring. A record's offset is where its ring
// position sits inside the arc, scaled to 32 bits; the top bits of the
// offset pick its cell.
type stripe struct {
	lock  *pthread.RWLock
	cells []string // 1 << bits cells, in ring order; "" is an empty cell
	bits  uint
	n     int    // records held
	ways  uint64 // stripes in the store: the ring is cut into this many arcs
}

// cellLoad is the average number of records per cell past which a
// stripe doubles its cells, so cells average cellLoad/2 to cellLoad
// records. A cell write copies the cell, so this trades the per-cell
// overhead (a string header, a size class's rounding) against the bytes
// copied per write: at 20k keys of 279 B, 3 and 4 leave the same heap,
// and 3 loads the keys about 10% faster.
const cellLoad = 3

// newStore returns an empty store of the given number of stripes.
func newStore(stripes int) *store {
	st := &store{stripes: make([]stripe, stripes)}
	for i := range st.stripes {
		st.stripes[i] = stripe{
			lock:  pthread.NewRWLock(pthread.PreferWriters),
			cells: make([]string, 1),
			ways:  uint64(stripes),
		}
	}
	return st
}

// locate returns the stripe whose arc holds ring position pos, and
// pos's offset within that arc. Stripe i holds the positions whose
// pos·stripes lies in [i·2³², (i+1)·2³²), so the stripe is the high
// word of that product and the offset its low word.
func (st *store) locate(pos uint32) (*stripe, uint32) {
	x := uint64(pos) * uint64(len(st.stripes))
	return &st.stripes[x>>32], uint32(x)
}

// get looks key up under its stripe's read lock.
func (st *store) get(key string) (string, bool) {
	sp, at := st.locate(db.RingPos(key))
	sp.lock.RLock()
	v, ok := sp.get(at, key)
	sp.lock.RUnlock()
	return v, ok
}

// len counts the records, read-locking one stripe at a time, so the
// count is a point-in-time sum per stripe, not a global snapshot.
func (st *store) len() int {
	n := 0
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.lock.RLock()
		n += sp.n
		sp.lock.RUnlock()
	}
	return n
}

// each calls fn with every record, in ring order of cells, read-locking
// one stripe at a time; fn runs under the lock and must not block. The
// strings are views into cells and stay valid after the call.
func (st *store) each(fn func(key, value string)) {
	for i := range st.stripes {
		sp := &st.stripes[i]
		sp.lock.RLock()
		for _, cell := range sp.cells {
			for j := 0; j < len(cell); {
				k, v, next := record(cell, j)
				fn(k, v)
				j = next
			}
		}
		sp.lock.RUnlock()
	}
}

// scan calls fn with every record whose ring position lies in [lo, hi)
// (hi at most 2³²), visiting only the cells whose sub-arcs overlap the
// range, and read-locking one stripe at a time; fn runs under the lock
// and must not block.
func (st *store) scan(lo, hi uint64, fn func(pos uint32, key, value string)) {
	if lo >= hi {
		return
	}
	ways := uint64(len(st.stripes))
	first, last := lo*ways, (hi-1)*ways // the range's products, inclusive
	for i := first >> 32; i <= last>>32; i++ {
		sp := &st.stripes[i]
		from, to := uint32(0), ^uint32(0) // offsets, inclusive
		if i == first>>32 {
			from = uint32(first)
		}
		if i == last>>32 {
			to = uint32(last)
		}
		sp.lock.RLock()
		for c := sp.cellOf(from); c <= sp.cellOf(to); c++ {
			cell := sp.cells[c]
			for j := 0; j < len(cell); {
				k, v, next := record(cell, j)
				if pos := db.RingPos(k); uint64(pos) >= lo && uint64(pos) < hi {
					fn(pos, k, v)
				}
				j = next
			}
		}
		sp.lock.RUnlock()
	}
}

// lock write-locks every stripe holding one of the positions — each
// once, in ascending order, the global order that keeps concurrent
// multi-key mutations deadlock-free against each other (single-key
// paths hold one stripe and nest nothing) — and returns the matching
// unlock.
func (st *store) lock(pos []uint32) (unlock func()) {
	hit := make([]bool, len(st.stripes))
	for _, p := range pos {
		hit[uint64(p)*uint64(len(st.stripes))>>32] = true
	}
	idx := make([]int, 0, len(st.stripes))
	for i, b := range hit {
		if b {
			idx = append(idx, i)
		}
	}
	for _, i := range idx {
		st.stripes[i].lock.Lock()
	}
	return func() {
		for j := len(idx) - 1; j >= 0; j-- {
			st.stripes[idx[j]].lock.Unlock()
		}
	}
}

// cellOf is the cell holding offset at: its top bits.
func (sp *stripe) cellOf(at uint32) int { return int(uint64(at) >> (32 - sp.bits)) }

// offset is key's offset within this stripe's arc (see store.locate).
func (sp *stripe) offset(key string) uint32 {
	return uint32(uint64(db.RingPos(key)) * sp.ways)
}

// get returns key's value, a view into its cell. The caller holds the
// stripe's lock, read or write; at is key's offset.
func (sp *stripe) get(at uint32, key string) (string, bool) {
	_, _, v, ok := find(sp.cells[sp.cellOf(at)], key)
	return v, ok
}

// set stores key = value, replacing key's cell. The caller holds the
// stripe's write lock; at is key's offset.
func (sp *stripe) set(at uint32, key, value string) {
	c := sp.cellOf(at)
	cell := sp.cells[c]
	start, end, _, ok := find(cell, key)
	if !ok {
		start, end = len(cell), len(cell)
		sp.n++
	}
	sp.cells[c] = rebuild(cell, start, end, key, value, true)
	if sp.n > cellLoad*len(sp.cells) && sp.bits < 32 {
		sp.split()
	}
}

// del removes key, replacing its cell, and returns the value it had.
// The caller holds the stripe's write lock; at is key's offset.
func (sp *stripe) del(at uint32, key string) (string, bool) {
	c := sp.cellOf(at)
	cell := sp.cells[c]
	start, end, old, ok := find(cell, key)
	if !ok {
		return "", false
	}
	sp.cells[c] = rebuild(cell, start, end, "", "", false)
	sp.n--
	return old, true
}

// split doubles the stripe's cells: cell c's records move to cells 2c
// and 2c+1 by the next bit of their offsets. Each new cell is built at
// its exact size, so the records are measured in one pass and copied
// in a second.
func (sp *stripe) split() {
	shift := 31 - sp.bits // the offset bit the split adds
	cells := make([]string, 2*len(sp.cells))
	for c, cell := range sp.cells {
		var size [2]int
		for j := 0; j < len(cell); {
			k, _, next := record(cell, j)
			size[sp.offset(k)>>shift&1] += next - j
			j = next
		}
		var half [2]strings.Builder
		half[0].Grow(size[0])
		half[1].Grow(size[1])
		for j := 0; j < len(cell); {
			k, _, next := record(cell, j)
			half[sp.offset(k)>>shift&1].WriteString(cell[j:next])
			j = next
		}
		cells[2*c], cells[2*c+1] = half[0].String(), half[1].String()
	}
	sp.cells = cells
	sp.bits++
}

// find locates key's record in cell: its bounds [start, end) and its
// value.
func find(cell, key string) (start, end int, value string, ok bool) {
	for i := 0; i < len(cell); {
		k, v, next := record(cell, i)
		if k == key {
			return i, next, v, true
		}
		i = next
	}
	return 0, 0, "", false
}

// record decodes the record at cell[i:]: its key, its value, and the
// index just past it. Cells are built only by rebuild and split, so the
// record is well formed.
func record(cell string, i int) (key, value string, next int) {
	kl, i := uvarintAt(cell, i)
	vl, i := uvarintAt(cell, i)
	return cell[i : i+kl], cell[i+kl : i+kl+vl], i + kl + vl
}

// uvarintAt decodes the uvarint at s[i:] and returns it with the index
// just past it.
func uvarintAt(s string, i int) (int, int) {
	var x uint64
	for shift := uint(0); ; shift += 7 {
		b := s[i]
		i++
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return int(x), i
		}
	}
}

// rebuild returns a new cell: cell with its bytes [start, end) replaced
// by the record key = value when put is set, and dropped otherwise. The
// untouched bytes are copied once, into one allocation of the exact
// size.
func rebuild(cell string, start, end int, key, value string, put bool) string {
	var hdr [2 * binary.MaxVarintLen64]byte
	var h []byte
	n := start + len(cell) - end
	if put {
		h = binary.AppendUvarint(hdr[:0], uint64(len(key)))
		h = binary.AppendUvarint(h, uint64(len(value)))
		n += len(h) + len(key) + len(value)
	}
	if n == 0 {
		return ""
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(cell[:start])
	b.Write(h)
	b.WriteString(key)
	b.WriteString(value)
	b.WriteString(cell[end:])
	return b.String()
}
