package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// MaxRecord bounds one record's encoded payload. It sits just above the
// sockets frame limit (1 MiB) so any mutation the server can admit fits
// one record, while a forged length header read back from a corrupt
// segment fails loudly instead of asking for a gigabyte.
const MaxRecord = 1<<20 + 1<<10

// castagnoli is the CRC32C polynomial table every frame and snapshot
// checksum uses (hardware-accelerated on every platform we run on).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt tags every loud decode failure: CRC mismatches, forged
// length headers, truncation anywhere but the tail of the last segment.
// Replay fails the whole Open on it — serving from a log with an
// interior hole would silently resurrect pre-hole state as current.
var ErrCorrupt = errors.New("wal: corrupt record")

// errTorn marks a frame sheared off by a crash mid-write: the length
// header or payload stops at end-of-data. Tolerated (and truncated
// away) at the tail of the last segment only — everywhere else a short
// frame means a hole, which is ErrCorrupt.
var errTorn = errors.New("wal: torn record")

// Kind tags one logged mutation, mirroring the mutating verbs of the
// wire protocol.
type Kind uint8

const (
	KindSet Kind = iota + 1
	KindDel
	KindMPut
	KindMDel
)

// KV is one key/value pair in a KindMPut record or a snapshot.
type KV struct {
	Key, Value string
}

// Record is one logged mutation.
//
// Every record's payload keeps two uvarint slots after the kind byte,
// where older logs stored a retry identity. The encoder writes both as
// zero and the decoder skips them, so logs written before the slots
// fell out of use replay unchanged. Client and ID are not stored: they
// remain only so existing callers that set them still compile.
type Record struct {
	Kind   Kind
	Client uint64   // ignored
	ID     uint64   // ignored
	Key    string   // KindSet, KindDel
	Value  string   // KindSet
	Keys   []string // KindMDel
	Pairs  []KV     // KindMPut
}

// appendString appends a uvarint length header and the raw bytes — the
// wire package's framing idiom.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// encode appends the record's payload (unframed) to dst.
func (r *Record) encode(dst []byte) []byte {
	dst = append(dst, byte(r.Kind), 0, 0) // kind, then the two unused uvarint slots
	switch r.Kind {
	case KindSet:
		dst = appendString(dst, r.Key)
		dst = appendString(dst, r.Value)
	case KindDel:
		dst = appendString(dst, r.Key)
	case KindMPut:
		dst = binary.AppendUvarint(dst, uint64(len(r.Pairs)))
		for _, kv := range r.Pairs {
			dst = appendString(dst, kv.Key)
			dst = appendString(dst, kv.Value)
		}
	case KindMDel:
		dst = binary.AppendUvarint(dst, uint64(len(r.Keys)))
		for _, k := range r.Keys {
			dst = appendString(dst, k)
		}
	}
	return dst
}

// appendFrame frames one payload for the segment file: uvarint length,
// 4-byte big-endian CRC32C of the payload, payload bytes.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.Checksum(payload, castagnoli))
	dst = append(dst, crc[:]...)
	return append(dst, payload...)
}

// readFrame decodes one frame from the head of data. It returns errTorn
// when data simply stops mid-frame (the caller decides whether that is
// a tolerable tail tear or an interior hole) and ErrCorrupt for
// everything that full bytes cannot explain: a forged or oversized
// length header, a zero-length record, a checksum mismatch.
func readFrame(data []byte) (payload []byte, n int, err error) {
	ln, un := binary.Uvarint(data)
	if un == 0 {
		return nil, 0, errTorn // length header sheared off
	}
	if un < 0 {
		return nil, 0, fmt.Errorf("%w: overlong length header", ErrCorrupt)
	}
	if ln == 0 {
		return nil, 0, fmt.Errorf("%w: zero-length record", ErrCorrupt)
	}
	if ln > MaxRecord {
		return nil, 0, fmt.Errorf("%w: length header %d exceeds %d", ErrCorrupt, ln, MaxRecord)
	}
	rest := data[un:]
	if uint64(len(rest)) < 4+ln {
		return nil, 0, errTorn // CRC or payload sheared off
	}
	payload = rest[4 : 4+ln]
	if want := binary.BigEndian.Uint32(rest[:4]); crc32.Checksum(payload, castagnoli) != want {
		return nil, 0, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return payload, un + 4 + int(ln), nil
}

// cursor is a bounds-checked reader over one record payload — the same
// defensive-decode idiom as the wire package's cursor, reimplemented
// here because bytes read back from disk face bit rot the network
// decoder never sees.
type cursor struct{ buf []byte }

func (c *cursor) byte() (byte, error) {
	if len(c.buf) == 0 {
		return 0, fmt.Errorf("%w: truncated payload", ErrCorrupt)
	}
	b := c.buf[0]
	c.buf = c.buf[1:]
	return b, nil
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.buf)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	c.buf = c.buf[n:]
	return v, nil
}

func (c *cursor) str() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(c.buf)) {
		return "", fmt.Errorf("%w: string of %d overruns payload", ErrCorrupt, n)
	}
	s := string(c.buf[:n])
	c.buf = c.buf[n:]
	return s, nil
}

// key reads a string and rejects the empty key no store path can ever
// have written — in a record read back from disk it means corruption.
func (c *cursor) key() (string, error) {
	s, err := c.str()
	if err != nil {
		return "", err
	}
	if s == "" {
		return "", fmt.Errorf("%w: zero-length key", ErrCorrupt)
	}
	return s, nil
}

// count reads an element count, capped by the bytes that remain: every
// element costs at least one byte, so a bigger count is a forged
// header, and allocation stays bounded by the payload size.
func (c *cursor) count() (int, error) {
	n, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(c.buf)) {
		return 0, fmt.Errorf("%w: count %d overruns payload", ErrCorrupt, n)
	}
	return int(n), nil
}

// decodeRecord parses one framed payload back into a Record, rejecting
// trailing bytes so the frame length and the payload structure must
// agree exactly.
func decodeRecord(payload []byte) (*Record, error) {
	r := &Record{}
	if err := decodeRecordInto(payload, r); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeRecordInto decodes into caller-owned storage. Parallel replay
// decodes a whole log into one flat []Record, so the per-record header
// allocation matters at the million-record scale.
func decodeRecordInto(payload []byte, r *Record) error {
	c := &cursor{buf: payload}
	kb, err := c.byte()
	if err != nil {
		return err
	}
	r.Kind = Kind(kb)
	for i := 0; i < 2; i++ { // the unused uvarint slots
		if _, err := c.uvarint(); err != nil {
			return err
		}
	}
	switch r.Kind {
	case KindSet:
		if r.Key, err = c.key(); err != nil {
			return err
		}
		if r.Value, err = c.str(); err != nil {
			return err
		}
	case KindDel:
		if r.Key, err = c.key(); err != nil {
			return err
		}
	case KindMPut:
		n, err := c.count()
		if err != nil {
			return err
		}
		r.Pairs = make([]KV, 0, n)
		for i := 0; i < n; i++ {
			var kv KV
			if kv.Key, err = c.key(); err != nil {
				return err
			}
			if kv.Value, err = c.str(); err != nil {
				return err
			}
			r.Pairs = append(r.Pairs, kv)
		}
	case KindMDel:
		n, err := c.count()
		if err != nil {
			return err
		}
		r.Keys = make([]string, 0, n)
		for i := 0; i < n; i++ {
			k, err := c.key()
			if err != nil {
				return err
			}
			r.Keys = append(r.Keys, k)
		}
	default:
		return fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, kb)
	}
	if len(c.buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(c.buf))
	}
	return nil
}

// replaySegment decodes frames from data until the end, invoking fn per
// record. A frame that simply stops at end-of-data is a torn write:
// tolerated when last (this is the newest segment — the tear is the
// crash's final, never-acked record) and returned as valid < len(data)
// so the caller truncates it away; fatal otherwise, because a short
// frame in a sealed segment is an interior hole. Every other decode
// failure is ErrCorrupt regardless of position.
func replaySegment(data []byte, last bool, fn func(*Record) error) (valid int64, recs int, err error) {
	off := 0
	for off < len(data) {
		payload, n, err := readFrame(data[off:])
		if errors.Is(err, errTorn) {
			if last {
				return int64(off), recs, nil
			}
			return int64(off), recs, fmt.Errorf("%w: torn frame inside a sealed segment at offset %d", ErrCorrupt, off)
		}
		if err != nil {
			return int64(off), recs, fmt.Errorf("%w at offset %d", err, off)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return int64(off), recs, fmt.Errorf("%w at offset %d", err, off)
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return int64(off), recs, err
			}
		}
		off += n
		recs++
	}
	return int64(off), recs, nil
}
