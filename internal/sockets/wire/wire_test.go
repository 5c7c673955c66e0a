// Decoder tests in the layered-codec style of the IEC-61850 BER/COTP
// stacks: exhaustive tables over truncations at every field boundary,
// oversized length headers, unknown tags, and structural violations —
// every way a peer can hand the decoder garbage, without a socket in
// the test.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// req is shorthand for an encoded request payload.
func req(t *testing.T, r *Request) []byte {
	t.Helper()
	return AppendRequest(nil, r)
}

func TestDecodeRequestRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		in   *Request
	}{
		{"ping", &Request{Verb: VerbPing, ID: 1}},
		{"count", &Request{Verb: VerbCount, ID: 7}},
		{"ping big id", &Request{Verb: VerbPing, ID: 1 << 40}},
		{"get", &Request{Verb: VerbGet, ID: 2, Key: "k"}},
		{"setv empty value", &Request{Verb: VerbSetV, ID: 5, Key: "k", Value: []byte{}}},
		{"setv binary value", &Request{Verb: VerbSetV, ID: 6, Key: "k", Value: []byte("a b\r\n\x00c")}},
		{"mdel", &Request{Verb: VerbMDel, ID: 8, Pairs: []KV{{"a", []byte("\x01t")}, {"b", []byte{}}, {"a-long-key-name", []byte("s")}}}},
		{"mget", &Request{Verb: VerbMGet, ID: 9, Keys: []string{"x", "y"}}},
		{"mput", &Request{Verb: VerbMPut, ID: 10, Pairs: []KV{{"a", []byte("1")}, {"b", []byte("2 2")}}}},
		{"setv", &Request{Verb: VerbSetV, ID: 11, Key: "k", Value: []byte("n0:1@5 v x")}},
		{"tree", &Request{Verb: VerbTree, ID: 12, Spans: []Span{{0, 4096}, {128, 256}}}},
		{"scan", &Request{Verb: VerbScan, ID: 13, Spans: []Span{{7, 8}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			enc := AppendRequest(nil, tt.in)
			got, err := DecodeRequest(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			// Normalize nil-vs-empty so reflect.DeepEqual compares shape,
			// not allocation history.
			if tt.in.Value != nil && len(tt.in.Value) == 0 {
				tt.in.Value = []byte{}
				if got.Value == nil {
					got.Value = []byte{}
				}
			}
			if !reflect.DeepEqual(got, tt.in) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tt.in)
			}
		})
	}
}

// TestDecodeRequestTruncatedEveryBoundary re-encodes a PDU of every
// shape and asserts that every strict prefix fails with ErrTruncated or
// ErrOversize — never a panic, never silent success.
func TestDecodeRequestTruncatedEveryBoundary(t *testing.T) {
	shapes := []*Request{
		{Verb: VerbPing, ID: 300}, // multi-byte uvarint ID
		{Verb: VerbGet, ID: 1, Key: "key"},
		{Verb: VerbMDel, ID: 1, Pairs: []KV{{"aa", []byte("s1")}, {"bb", []byte{}}}},
		{Verb: VerbMGet, ID: 1, Keys: []string{"aa", "bb"}},
		{Verb: VerbMPut, ID: 1, Pairs: []KV{{"k1", []byte("v1")}, {"k2", []byte("v2")}}},
		{Verb: VerbSetV, ID: 1, Key: "key", Value: []byte("value")},
		{Verb: VerbTree, ID: 1, Spans: []Span{{300, 4096}}},
		{Verb: VerbScan, ID: 1, Spans: []Span{{0, 1}, {9, 300}}},
	}
	for _, shape := range shapes {
		enc := AppendRequest(nil, shape)
		for cut := 0; cut < len(enc); cut++ {
			_, err := DecodeRequest(enc[:cut])
			if err == nil {
				t.Errorf("%s: prefix of %d/%d bytes decoded cleanly", verbName(shape.Verb), cut, len(enc))
				continue
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrOversize) {
				t.Errorf("%s: prefix %d/%d: got %v, want ErrTruncated/ErrOversize", verbName(shape.Verb), cut, len(enc), err)
			}
		}
	}
}

func TestDecodeResponseTruncatedEveryBoundary(t *testing.T) {
	shapes := []*Response{
		{Tag: RespOK, ID: 300},
		{Tag: RespValue, ID: 1, Value: []byte("value")},
		{Tag: RespCount, ID: 1, N: 1 << 20},
		{Tag: RespMulti, ID: 1, Found: []bool{true, false}, Values: [][]byte{[]byte("v"), nil}},
		{Tag: RespOverload, ID: 500},
		{Tag: RespHashes, ID: 1, Hashes: []uint64{0xdeadbeef, 1 << 63}},
		{Tag: RespScan, ID: 1, Scan: []ScanEntry{{"k1", 7}, {"k2", 1 << 40}}},
		{Tag: RespErr, ID: 1, Err: "boom"},
	}
	for _, shape := range shapes {
		enc := AppendResponse(nil, shape)
		for cut := 0; cut < len(enc); cut++ {
			_, err := DecodeResponse(enc[:cut])
			if err == nil {
				t.Errorf("tag 0x%02x: prefix of %d/%d bytes decoded cleanly", shape.Tag, cut, len(enc))
				continue
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrOversize) {
				t.Errorf("tag 0x%02x: prefix %d/%d: got %v, want ErrTruncated/ErrOversize", shape.Tag, cut, len(enc), err)
			}
		}
	}
}

func TestDecodeRequestMalformed(t *testing.T) {
	// A SETV whose value-length uvarint claims more bytes than exist.
	overclaim := func() []byte {
		p := []byte{VerbSetV, 1}
		p = binary.AppendUvarint(p, 1)
		p = append(p, 'k')
		p = binary.AppendUvarint(p, 1000) // value "length"
		return append(p, 'v')             // ...but one byte follows
	}()
	// A SETV whose value length exceeds the frame cap outright.
	hugeClaim := func() []byte {
		p := []byte{VerbSetV, 1}
		p = binary.AppendUvarint(p, 1)
		p = append(p, 'k')
		return binary.AppendUvarint(p, MaxFrame+1)
	}()
	// An MDEL whose count no payload of this size could hold.
	hugeCount := func() []byte {
		p := []byte{VerbMDel, 1}
		return binary.AppendUvarint(p, 1<<40)
	}()
	// A 10-byte uvarint with the continuation bit never clearing
	// overflows 64 bits; binary.Uvarint reports n < 0.
	badVarint := append([]byte{VerbPing},
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)

	tests := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty payload", nil, ErrTruncated},
		{"verb only", []byte{VerbGet}, ErrTruncated},
		{"unknown verb", req(t, &Request{Verb: 0x7E, ID: 1}), ErrUnknownVerb},
		{"response tag as verb", req(t, &Request{Verb: RespOK, ID: 1}), ErrUnknownVerb},
		{"zero-length key GET", []byte{VerbGet, 1, 0}, ErrZeroKey},
		{"zero-length key in MDEL", []byte{VerbMDel, 1, 1, 0, 0}, ErrZeroKey},
		{"SET is not a wire verb", []byte{VerbSet, 1, 1, 'k', 1, 'v'}, ErrUnknownVerb},
		{"DEL is not a wire verb", []byte{VerbDel, 1, 1, 'k'}, ErrUnknownVerb},
		{"value length overclaims", overclaim, ErrOversize},
		{"value length above frame cap", hugeClaim, ErrOversize},
		{"MDEL count above payload", hugeCount, ErrOversize},
		{"overflowing uvarint ID", badVarint, ErrTruncated},
		{"non-minimal varint ID", []byte{VerbPing, 0x80, 0x00}, ErrMalformed},
		{"trailing bytes", append(req(t, &Request{Verb: VerbPing, ID: 1}), 0xAB), ErrTrailing},
		{"empty span", []byte{VerbTree, 1, 1, 5, 5}, ErrMalformed},
		{"inverted span", []byte{VerbScan, 1, 1, 9, 3}, ErrMalformed},
		{"span count above payload", append([]byte{VerbTree, 1}, 0xFF, 0xFF, 0x03), ErrOversize},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := DecodeRequest(tt.in)
			if !errors.Is(err, tt.want) {
				t.Errorf("DecodeRequest(%x) = %v, want %v", tt.in, err, tt.want)
			}
		})
	}
}

// TestDecodeRequestErrorKeepsID: a server must be able to address an
// error response even for a request that fails mid-decode — the verb
// and correlation ID survive the failure.
func TestDecodeRequestErrorKeepsID(t *testing.T) {
	enc := req(t, &Request{Verb: VerbSetV, ID: 42, Key: "k", Value: []byte("v")})
	r, err := DecodeRequest(enc[:len(enc)-1])
	if err == nil {
		t.Fatal("truncated SETV decoded cleanly")
	}
	if r == nil || r.ID != 42 || r.Verb != VerbSetV {
		t.Fatalf("partial decode lost addressing: %+v", r)
	}
}

func TestDecodeResponseMalformed(t *testing.T) {
	tests := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"unknown tag", []byte{0x50, 1}, ErrUnknownTag},
		{"verb as tag", []byte{VerbSet, 1}, ErrUnknownTag},
		{"multi count above payload", append([]byte{RespMulti, 1}, 0xFF, 0xFF, 0x03), ErrOversize},
		{"multi found flag not 0/1", []byte{RespMulti, 1, 1, 0x02, 0x00}, ErrMalformed},
		{"trailing bytes", append(AppendResponse(nil, &Response{Tag: RespOK, ID: 1}), 0), ErrTrailing},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := DecodeResponse(tt.in)
			if !errors.Is(err, tt.want) {
				t.Errorf("DecodeResponse(%x) = %v, want %v", tt.in, err, tt.want)
			}
		})
	}
}

// FuzzDecodeFrame throws arbitrary payloads at both decoders. The
// invariants: never panic, never allocate past the frame cap, and any
// payload that decodes cleanly must re-encode to the exact input bytes
// (the codec is canonical — one wire form per PDU).
func FuzzDecodeFrame(f *testing.F) {
	seeds := [][]byte{
		AppendRequest(nil, &Request{Verb: VerbPing, ID: 1}),
		AppendRequest(nil, &Request{Verb: VerbSetV, ID: 2, Key: "key", Value: []byte("value with spaces\r\n")}),
		AppendRequest(nil, &Request{Verb: VerbGet, ID: 300, Key: "k"}),
		AppendRequest(nil, &Request{Verb: VerbMDel, ID: 4, Pairs: []KV{{"a", []byte("s")}, {"b", nil}}}),
		AppendRequest(nil, &Request{Verb: VerbMGet, ID: 5, Keys: []string{"x"}}),
		AppendRequest(nil, &Request{Verb: VerbMPut, ID: 6, Pairs: []KV{{"k", []byte("v")}}}),
		AppendResponse(nil, &Response{Tag: RespOK, ID: 1}),
		AppendResponse(nil, &Response{Tag: RespValue, ID: 2, Value: []byte("v")}),
		AppendResponse(nil, &Response{Tag: RespCount, ID: 3, N: 42}),
		AppendResponse(nil, &Response{Tag: RespMulti, ID: 4, Found: []bool{true}, Values: [][]byte{[]byte("v")}}),
		AppendResponse(nil, &Response{Tag: RespErr, ID: 5, Err: "usage"}),
		AppendResponse(nil, &Response{Tag: RespOverload, ID: 6}),
		AppendRequest(nil, &Request{Verb: VerbSetV, ID: 7, Key: "k", Value: []byte("n0:1@5 v x")}),
		AppendRequest(nil, &Request{Verb: VerbTree, ID: 8, Spans: []Span{{0, 4096}}}),
		AppendRequest(nil, &Request{Verb: VerbScan, ID: 9, Spans: []Span{{5, 6}}}),
		AppendResponse(nil, &Response{Tag: RespHashes, ID: 10, Hashes: []uint64{42}}),
		AppendResponse(nil, &Response{Tag: RespScan, ID: 11, Scan: []ScanEntry{{"k", 9}}}),
		{VerbSet, 0x01, 0x00},
		{0xFF, 0xFF, 0xFF},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		if r, err := DecodeRequest(p); err == nil {
			if enc := AppendRequest(nil, r); !bytes.Equal(enc, p) {
				t.Fatalf("request not canonical: %x decodes to %+v which re-encodes to %x", p, r, enc)
			}
		}
		if r, err := DecodeResponse(p); err == nil {
			if enc := AppendResponse(nil, r); !bytes.Equal(enc, p) {
				t.Fatalf("response not canonical: %x decodes to %+v which re-encodes to %x", p, r, enc)
			}
		}
	})
}
