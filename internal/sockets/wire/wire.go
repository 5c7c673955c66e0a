// Package wire is the binary KV wire protocol: tagged request/response
// PDUs carried inside the same u32-length-prefixed frames as the text
// protocol, layered the way the BER/COTP codecs in the IEC-61850 stacks
// are — a pure, allocation-light encode/decode layer with no transport
// state, so every malformed input is testable (and fuzzable) without a
// socket in sight.
//
// # Negotiation
//
// The first byte a client sends on a fresh connection selects the
// protocol. Text-protocol frames always begin with the high byte of a
// u32 big-endian length, and since MaxFrame is far below 2^24 that byte
// is always 0x00 — so any non-zero magic is unambiguous. A binary
// client opens with Magic (0xB1), then length-prefixed frames. A text
// client just starts writing frames; the server peeks one byte and
// serves whichever protocol it sees.
//
// # Frame payload layout
//
// Every payload starts with a tag byte and a uvarint correlation ID;
// what follows depends on the tag. Strings and byte fields are uvarint
// length + raw bytes ("bytes" below); counted sequences are a uvarint
// element count followed by that many elements.
//
//	request  := verb:1 id:uvarint body
//	  VerbPing | VerbCount:             (empty body)
//	  VerbGet:                          key:bytes
//	  VerbMGet:                         n:uvarint key:bytes ×n
//	  VerbMPut:                         n:uvarint (key:bytes value:bytes) ×n
//	  VerbMDel:                         n:uvarint (key:bytes stamp:bytes) ×n
//	  VerbSetV:                         key:bytes value:bytes
//	  VerbTree | VerbScan:              n:uvarint (lo:uvarint hi:uvarint) ×n
//	  VerbSyncWAL:                      mode:1 cursor:uvarint chunk:bytes
//
//	response := tag:1 id:uvarint body
//	  RespOK | RespNotFound | RespOverload:  (empty body)
//	  RespValue:              value:bytes
//	  RespCount:              n:uvarint            (COUNT, MPUT's applied and MDEL's deleted count, SETV's outcome)
//	  RespMulti:              n:uvarint (found:1 value:bytes) ×n   (MGET, in request key order)
//	  RespHashes:             n:uvarint hash:8 ×n                  (TREE, one per requested span)
//	  RespScan:               n:uvarint (key:bytes hash:8) ×n      (SCAN, sorted by key)
//	  RespSyncWAL:            next:uvarint done:1 chunk:bytes      (SYNCWAL dump)
//	  RespErr:                message:bytes
//
// Every binary mutation is idempotent by version, so a retried PDU is
// safe without server-side bookkeeping. SETV and each MPUT pair carry a
// stamped value and apply only if the stamp wins. Each MDEL pair carries
// the stamp (the encoded version header, without a payload) the caller
// read, and deletes only a stored copy that is not newer; an empty
// stamp deletes unconditionally. VerbSet and VerbDel are not on the
// wire: they name the text protocol's SET and DEL inside the server.
//
// Values are opaque bytes — the length prefix lifts the text protocol's
// no-CR/LF restriction entirely. Keys stay under the text protocol's
// rules (non-empty, no whitespace) because the two protocols share one
// store and a key written here can surface in a text KEYS response.
// The codec itself enforces only the structural half (non-empty); the
// server enforces the whitespace rule.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Magic is the negotiation byte a binary client sends first. It can
// never open a text connection: text frames start 0x00 (see package
// comment).
const Magic byte = 0xB1

// MaxFrame mirrors the transport's frame cap so the decoder can reject
// length fields no well-formed frame could carry, before allocating.
const MaxFrame = 1 << 20

// Request verbs. VerbSet and VerbDel never travel: the decoder refuses
// them, and the server uses them as the request shape of the text
// protocol's SET and DEL.
const (
	VerbPing  byte = 0x01
	VerbSet   byte = 0x02
	VerbGet   byte = 0x03
	VerbDel   byte = 0x04
	VerbMDel  byte = 0x05
	VerbCount byte = 0x06
	VerbMGet  byte = 0x08
	VerbMPut  byte = 0x09
	// Anti-entropy verbs: SETV is a version-conditional set (the server
	// applies it only if the carried version wins the cluster's total
	// order), TREE fetches Merkle range hashes, SCAN lists (key, entry
	// hash) pairs for a span of Merkle buckets.
	VerbSetV byte = 0x0A
	VerbTree byte = 0x0B
	VerbScan byte = 0x0C
	// VerbSyncWAL is the WAL-streaming re-replication verb. A dump-mode
	// request (Mode SyncWALDump) asks the node for the next chunk of its
	// durable history — snapshot plus segment frames — from Cursor; an
	// apply-mode request (Mode SyncWALApply) carries a chunk of stream
	// frames in Value for the node to apply version-conditionally.
	VerbSyncWAL byte = 0x0D
)

// SyncWAL request modes.
const (
	SyncWALDump  byte = 0
	SyncWALApply byte = 1
)

// Response tags. The high bit distinguishes them from verbs so a
// misdirected PDU fails decode instead of aliasing.
const (
	RespOK       byte = 0x81
	RespValue    byte = 0x82
	RespNotFound byte = 0x83
	RespCount    byte = 0x84
	RespMulti    byte = 0x86
	RespOverload byte = 0x87
	RespHashes   byte = 0x88
	RespScan     byte = 0x89
	// RespSyncWAL answers a dump-mode SYNCWAL: the chunk bytes (Value),
	// the cursor to pass next (N), and whether the dump is complete
	// (Done). Apply-mode SYNCWAL answers with RespCount.
	RespSyncWAL byte = 0x8A
	RespErr     byte = 0xFF
)

// Decode errors, all matchable with errors.Is.
var (
	ErrTruncated   = errors.New("wire: truncated PDU")
	ErrOversize    = errors.New("wire: length field exceeds payload")
	ErrUnknownVerb = errors.New("wire: unknown verb")
	ErrUnknownTag  = errors.New("wire: unknown response tag")
	ErrZeroKey     = errors.New("wire: zero-length key")
	ErrTrailing    = errors.New("wire: trailing bytes after PDU")
	ErrMalformed   = errors.New("wire: malformed PDU")
)

// KV is one pair of an MPUT batch (key and stamped value) or of an
// MDEL batch (key and stamp).
type KV struct {
	Key   string
	Value []byte
}

// Span is one half-open Merkle bucket range [Lo, Hi) of a TREE or SCAN
// request.
type Span struct {
	Lo, Hi uint32
}

// ScanEntry is one (key, entry hash) pair of a SCAN response.
type ScanEntry struct {
	Key  string
	Hash uint64
}

// Request is one decoded request PDU. Only the fields the verb uses
// are populated.
type Request struct {
	Verb   byte
	ID     uint64
	Key    string
	Value  []byte
	Keys   []string // MGet
	Pairs  []KV     // MPut, MDel
	Spans  []Span   // Tree, Scan
	Mode   byte     // SyncWAL: SyncWALDump or SyncWALApply
	Cursor uint64   // SyncWAL dump position
}

// Response is one decoded response PDU. Only the fields the tag uses
// are populated.
type Response struct {
	Tag    byte
	ID     uint64
	Value  []byte
	N      uint64
	Found  []bool      // MGET results, parallel with Values
	Values [][]byte    // MGET results, in request key order
	Hashes []uint64    // TREE results, one per requested span
	Scan   []ScanEntry // SCAN results
	Done   bool        // SYNCWAL dump complete
	Err    string
}

// verbName maps verbs to the text protocol's command words — for error
// messages and for synthesizing the text form fault-injection hooks
// match on.
func verbName(v byte) string {
	switch v {
	case VerbPing:
		return "PING"
	case VerbSet:
		return "SET"
	case VerbGet:
		return "GET"
	case VerbDel:
		return "DEL"
	case VerbMDel:
		return "MDEL"
	case VerbCount:
		return "COUNT"
	case VerbMGet:
		return "MGET"
	case VerbMPut:
		return "MPUT"
	case VerbSetV:
		return "SETV"
	case VerbTree:
		return "TREE"
	case VerbScan:
		return "SCAN"
	case VerbSyncWAL:
		return "SYNCWAL"
	}
	return fmt.Sprintf("verb(0x%02x)", v)
}

// VerbName exposes the text command word for a verb byte.
func VerbName(v byte) string { return verbName(v) }

// --- encoding ---

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendRequest appends r's PDU encoding to dst and returns the
// extended slice.
func AppendRequest(dst []byte, r *Request) []byte {
	dst = append(dst, r.Verb)
	dst = binary.AppendUvarint(dst, r.ID)
	switch r.Verb {
	case VerbGet:
		dst = appendString(dst, r.Key)
	case VerbSetV:
		dst = appendString(dst, r.Key)
		dst = appendBytes(dst, r.Value)
	case VerbTree, VerbScan:
		dst = binary.AppendUvarint(dst, uint64(len(r.Spans)))
		for _, s := range r.Spans {
			dst = binary.AppendUvarint(dst, uint64(s.Lo))
			dst = binary.AppendUvarint(dst, uint64(s.Hi))
		}
	case VerbMGet:
		dst = binary.AppendUvarint(dst, uint64(len(r.Keys)))
		for _, k := range r.Keys {
			dst = appendString(dst, k)
		}
	case VerbMPut, VerbMDel:
		dst = binary.AppendUvarint(dst, uint64(len(r.Pairs)))
		for _, kv := range r.Pairs {
			dst = appendString(dst, kv.Key)
			dst = appendBytes(dst, kv.Value)
		}
	case VerbSyncWAL:
		dst = append(dst, r.Mode)
		dst = binary.AppendUvarint(dst, r.Cursor)
		dst = appendBytes(dst, r.Value)
	}
	return dst
}

// AppendResponse appends r's PDU encoding to dst and returns the
// extended slice.
func AppendResponse(dst []byte, r *Response) []byte {
	dst = append(dst, r.Tag)
	dst = binary.AppendUvarint(dst, r.ID)
	switch r.Tag {
	case RespValue:
		dst = appendBytes(dst, r.Value)
	case RespCount:
		dst = binary.AppendUvarint(dst, r.N)
	case RespMulti:
		dst = binary.AppendUvarint(dst, uint64(len(r.Values)))
		for i, v := range r.Values {
			if r.Found[i] {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
			dst = appendBytes(dst, v)
		}
	case RespHashes:
		dst = binary.AppendUvarint(dst, uint64(len(r.Hashes)))
		for _, h := range r.Hashes {
			dst = binary.BigEndian.AppendUint64(dst, h)
		}
	case RespScan:
		dst = binary.AppendUvarint(dst, uint64(len(r.Scan)))
		for _, e := range r.Scan {
			dst = appendString(dst, e.Key)
			dst = binary.BigEndian.AppendUint64(dst, e.Hash)
		}
	case RespSyncWAL:
		dst = binary.AppendUvarint(dst, r.N)
		if r.Done {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = appendBytes(dst, r.Value)
	case RespErr:
		dst = appendString(dst, r.Err)
	}
	return dst
}

// --- decoding ---

// cursor walks a payload with bounds-checked reads; every failure mode
// maps to a typed error naming the field that broke.
type cursor struct {
	p   []byte
	pos int
}

func (c *cursor) rem() int { return len(c.p) - c.pos }

func (c *cursor) byte(field string) (byte, error) {
	if c.rem() < 1 {
		return 0, fmt.Errorf("%w: %s at offset %d", ErrTruncated, field, c.pos)
	}
	b := c.p[c.pos]
	c.pos++
	return b, nil
}

func (c *cursor) uvarint(field string) (uint64, error) {
	v, n := binary.Uvarint(c.p[c.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: %s at offset %d", ErrTruncated, field, c.pos)
	}
	// Reject non-minimal encodings (a trailing zero continuation group)
	// so every value has exactly one wire form — the property the fuzz
	// harness checks by re-encoding.
	if n > 1 && c.p[c.pos+n-1] == 0 {
		return 0, fmt.Errorf("%w: non-minimal varint for %s at offset %d", ErrMalformed, field, c.pos)
	}
	c.pos += n
	return v, nil
}

// bytes reads a uvarint length then that many raw bytes. The length is
// checked against both the frame cap and the bytes actually present, so
// a hostile header can neither force a huge allocation nor read past
// the payload.
func (c *cursor) bytes(field string) ([]byte, error) {
	n, err := c.uvarint(field + " length")
	if err != nil {
		return nil, err
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %s claims %d bytes", ErrOversize, field, n)
	}
	if uint64(c.rem()) < n {
		return nil, fmt.Errorf("%w: %s claims %d bytes, %d remain", ErrOversize, field, n, c.rem())
	}
	b := c.p[c.pos : c.pos+int(n)]
	c.pos += int(n)
	return b, nil
}

// count reads a sequence count and sanity-checks it against the bytes
// left: every element costs at least minPer bytes, so a count the
// payload cannot possibly hold is rejected before any allocation.
func (c *cursor) count(field string, minPer int) (int, error) {
	n, err := c.uvarint(field)
	if err != nil {
		return 0, err
	}
	if n > uint64(c.rem()/minPer) {
		return 0, fmt.Errorf("%w: %s claims %d elements, %d bytes remain", ErrOversize, field, n, c.rem())
	}
	return int(n), nil
}

// u64 reads a fixed 8-byte big-endian word (Merkle hashes — uniformly
// random 64-bit values, which a uvarint would inflate to ~9.2 bytes).
func (c *cursor) u64(field string) (uint64, error) {
	if c.rem() < 8 {
		return 0, fmt.Errorf("%w: %s at offset %d", ErrTruncated, field, c.pos)
	}
	v := binary.BigEndian.Uint64(c.p[c.pos:])
	c.pos += 8
	return v, nil
}

// span reads one bucket range and checks it is well-formed: bounds fit
// in 32 bits and Lo < Hi (an empty span has no possible use and is
// rejected as malformed).
func (c *cursor) span(field string) (Span, error) {
	lo, err := c.uvarint(field + " lo")
	if err != nil {
		return Span{}, err
	}
	hi, err := c.uvarint(field + " hi")
	if err != nil {
		return Span{}, err
	}
	if lo >= hi || hi >= 1<<32 {
		return Span{}, fmt.Errorf("%w: %s is [%d, %d)", ErrMalformed, field, lo, hi)
	}
	return Span{Lo: uint32(lo), Hi: uint32(hi)}, nil
}

func (c *cursor) key(field string) (string, error) {
	b, err := c.bytes(field)
	if err != nil {
		return "", err
	}
	if len(b) == 0 {
		return "", fmt.Errorf("%w: %s", ErrZeroKey, field)
	}
	return string(b), nil
}

// DecodeRequest decodes one request PDU. On error the returned Request
// is non-nil whenever the verb and correlation ID were readable, so a
// server can still address its error response.
func DecodeRequest(p []byte) (*Request, error) {
	c := &cursor{p: p}
	verb, err := c.byte("verb")
	if err != nil {
		return nil, err
	}
	id, err := c.uvarint("correlation ID")
	if err != nil {
		return nil, err
	}
	r := &Request{Verb: verb, ID: id}
	switch verb {
	case VerbPing, VerbCount:
		// empty body
	case VerbGet:
		if r.Key, err = c.key("key"); err != nil {
			return r, err
		}
	case VerbSetV:
		if r.Key, err = c.key("key"); err != nil {
			return r, err
		}
		if r.Value, err = c.bytes("value"); err != nil {
			return r, err
		}
	case VerbTree, VerbScan:
		n, err := c.count("span count", 2)
		if err != nil {
			return r, err
		}
		r.Spans = make([]Span, 0, n)
		for i := 0; i < n; i++ {
			s, err := c.span(fmt.Sprintf("span %d", i))
			if err != nil {
				return r, err
			}
			r.Spans = append(r.Spans, s)
		}
	case VerbMGet:
		n, err := c.count("key count", 1)
		if err != nil {
			return r, err
		}
		r.Keys = make([]string, 0, n)
		for i := 0; i < n; i++ {
			k, err := c.key(fmt.Sprintf("key %d", i))
			if err != nil {
				return r, err
			}
			r.Keys = append(r.Keys, k)
		}
	case VerbMPut, VerbMDel:
		n, err := c.count("pair count", 2)
		if err != nil {
			return r, err
		}
		r.Pairs = make([]KV, 0, n)
		for i := 0; i < n; i++ {
			k, err := c.key(fmt.Sprintf("key %d", i))
			if err != nil {
				return r, err
			}
			v, err := c.bytes(fmt.Sprintf("value %d", i))
			if err != nil {
				return r, err
			}
			r.Pairs = append(r.Pairs, KV{Key: k, Value: v})
		}
	case VerbSyncWAL:
		if r.Mode, err = c.byte("syncwal mode"); err != nil {
			return r, err
		}
		if r.Mode > SyncWALApply {
			return r, fmt.Errorf("%w: syncwal mode 0x%02x", ErrMalformed, r.Mode)
		}
		if r.Cursor, err = c.uvarint("syncwal cursor"); err != nil {
			return r, err
		}
		if r.Value, err = c.bytes("syncwal chunk"); err != nil {
			return r, err
		}
	default:
		return r, fmt.Errorf("%w: 0x%02x", ErrUnknownVerb, verb)
	}
	if c.rem() != 0 {
		return r, fmt.Errorf("%w: %d after %s", ErrTrailing, c.rem(), verbName(verb))
	}
	return r, nil
}

// DecodeResponse decodes one response PDU.
func DecodeResponse(p []byte) (*Response, error) {
	c := &cursor{p: p}
	tag, err := c.byte("tag")
	if err != nil {
		return nil, err
	}
	id, err := c.uvarint("correlation ID")
	if err != nil {
		return nil, err
	}
	r := &Response{Tag: tag, ID: id}
	switch tag {
	case RespOK, RespNotFound, RespOverload:
		// empty body
	case RespValue:
		if r.Value, err = c.bytes("value"); err != nil {
			return r, err
		}
	case RespCount:
		if r.N, err = c.uvarint("count"); err != nil {
			return r, err
		}
	case RespMulti:
		n, err := c.count("entry count", 2)
		if err != nil {
			return r, err
		}
		r.Found = make([]bool, 0, n)
		r.Values = make([][]byte, 0, n)
		for i := 0; i < n; i++ {
			f, err := c.byte(fmt.Sprintf("found flag %d", i))
			if err != nil {
				return r, err
			}
			if f > 1 {
				return r, fmt.Errorf("%w: found flag %d is 0x%02x", ErrMalformed, i, f)
			}
			v, err := c.bytes(fmt.Sprintf("value %d", i))
			if err != nil {
				return r, err
			}
			r.Found = append(r.Found, f != 0)
			r.Values = append(r.Values, v)
		}
	case RespHashes:
		n, err := c.count("hash count", 8)
		if err != nil {
			return r, err
		}
		r.Hashes = make([]uint64, 0, n)
		for i := 0; i < n; i++ {
			h, err := c.u64(fmt.Sprintf("hash %d", i))
			if err != nil {
				return r, err
			}
			r.Hashes = append(r.Hashes, h)
		}
	case RespScan:
		n, err := c.count("entry count", 10)
		if err != nil {
			return r, err
		}
		r.Scan = make([]ScanEntry, 0, n)
		for i := 0; i < n; i++ {
			k, err := c.key(fmt.Sprintf("key %d", i))
			if err != nil {
				return r, err
			}
			h, err := c.u64(fmt.Sprintf("entry hash %d", i))
			if err != nil {
				return r, err
			}
			r.Scan = append(r.Scan, ScanEntry{Key: k, Hash: h})
		}
	case RespSyncWAL:
		if r.N, err = c.uvarint("syncwal next cursor"); err != nil {
			return r, err
		}
		d, err := c.byte("syncwal done flag")
		if err != nil {
			return r, err
		}
		if d > 1 {
			return r, fmt.Errorf("%w: syncwal done flag is 0x%02x", ErrMalformed, d)
		}
		r.Done = d != 0
		if r.Value, err = c.bytes("syncwal chunk"); err != nil {
			return r, err
		}
	case RespErr:
		msg, err := c.bytes("error message")
		if err != nil {
			return r, err
		}
		r.Err = string(msg)
	default:
		return r, fmt.Errorf("%w: 0x%02x", ErrUnknownTag, tag)
	}
	if c.rem() != 0 {
		return r, fmt.Errorf("%w: %d after tag 0x%02x", ErrTrailing, c.rem(), tag)
	}
	return r, nil
}
