package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"
)

// FuzzReplaySegment throws arbitrary bytes at the segment replayer —
// the same adversarial posture as wire's FuzzDecodeFrame, because a
// segment read back from disk is exactly as untrusted as a network
// peer. Replay must never panic, never allocate unboundedly, and must
// classify every input as clean, torn tail, or ErrCorrupt.
func FuzzReplaySegment(f *testing.F) {
	f.Add([]byte{}, true)
	f.Add(seg(rec(1)), true)
	f.Add(seg(rec(1), rec(2), rec(3)), false)
	f.Add(seg(&Record{Kind: KindMPut, Pairs: []KV{{"a", "1"}, {"b", "2"}}}), true)
	f.Add(seg(&Record{Kind: KindMDel, Keys: []string{"a", "b"}}), true)
	torn := seg(rec(1), rec(2))
	f.Add(torn[:len(torn)-3], true)
	f.Add([]byte{0x05}, true)
	f.Add([]byte{0x00}, true)
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, true)

	f.Fuzz(func(t *testing.T, data []byte, last bool) {
		var recs int
		valid, n, err := replaySegment(data, last, func(r *Record) error {
			recs++
			if r.Kind < KindSet || r.Kind > KindMDel {
				t.Fatalf("replayed record with invalid kind %d", r.Kind)
			}
			return nil
		})
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid offset %d out of range [0,%d]", valid, len(data))
		}
		if n != recs {
			t.Fatalf("returned record count %d != callback count %d", n, recs)
		}
		if err == nil && last && valid < int64(len(data)) {
			// Tolerated tear: re-replaying the truncated prefix must be
			// clean and reproduce the same records (what Open relies on
			// after it truncates the file).
			valid2, n2, err2 := replaySegment(data[:valid], last, nil)
			if err2 != nil || valid2 != valid || n2 != n {
				t.Fatalf("truncated prefix not clean: valid=%d n=%d err=%v", valid2, n2, err2)
			}
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error escaping classification: %v", err)
		}
	})
}

// legacySlots rewrites a record payload with nonzero values in the two
// uvarint slots after the kind byte, as logs that carried a retry
// identity there wrote them.
func legacySlots(payload []byte, client, id uint64) []byte {
	out := binary.AppendUvarint([]byte{payload[0]}, client)
	out = binary.AppendUvarint(out, id)
	return append(out, payload[3:]...)
}

// FuzzDecodeRecord exercises the payload decoder beneath the framing.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(rec(1).encode(nil))
	f.Add((&Record{Kind: KindMPut, Pairs: []KV{{"k", "v"}}}).encode(nil))
	f.Add(legacySlots((&Record{Kind: KindMDel, Keys: []string{"a", "b"}}).encode(nil), 0xC0FFEE, 300))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := decodeRecord(payload)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error escaping classification: %v", err)
			}
			return
		}
		// A decodable record re-encodes canonically (the unused slots
		// as zero), and the re-encoding decodes to the same record.
		enc := r.encode(nil)
		r2, err := decodeRecord(enc)
		if err != nil || !reflect.DeepEqual(r, r2) {
			t.Fatalf("re-encode of %x does not round-trip: %x -> %+v, %v", payload, enc, r2, err)
		}
	})
}

// legacySnapshot encodes a snapshot file in the layout logs used while
// the trailing section carried retry entries: each entry a client ID, a
// correlation ID and an encoded response.
func legacySnapshot(tail uint64, pairs []KV, entries int) []byte {
	payload := binary.AppendUvarint(nil, tail)
	payload = binary.AppendUvarint(payload, uint64(len(pairs)))
	for _, kv := range pairs {
		payload = appendString(payload, kv.Key)
		payload = appendString(payload, kv.Value)
	}
	payload = binary.AppendUvarint(payload, uint64(entries))
	for i := 0; i < entries; i++ {
		payload = binary.AppendUvarint(payload, 0xC0FFEE+uint64(i))
		payload = binary.AppendUvarint(payload, uint64(i+1))
		payload = appendString(payload, "\x81\x01") // an encoded OK response
	}
	return sealSnapshot(payload)
}

// sealSnapshot wraps a payload in the snapshot file's magic and CRC.
func sealSnapshot(payload []byte) []byte {
	buf := append([]byte(snapMagic), payload...)
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
}

// FuzzLoadSnapshot throws arbitrary bytes at the snapshot decoder, which
// reads a file back from disk. With seal set, the bytes become the
// payload of a file whose magic and CRC are valid, so the fuzzer reaches
// the structure beneath them. Decoding must never panic and must fail
// only with ErrCorrupt; a snapshot that loads must write back to one
// that loads to the same state.
func FuzzLoadSnapshot(f *testing.F) {
	pairs := []KV{{"a", "1"}, {"b", "\x01v\x00x"}}
	legacy := legacySnapshot(7, pairs, 3)
	f.Add(legacy, false)
	f.Add(legacy[len(snapMagic):len(legacy)-4], true)
	f.Add(encodeSnapshot(2, &Snapshot{Pairs: pairs}), false)
	f.Add([]byte{}, true)
	f.Add([]byte(snapMagic), false)
	f.Fuzz(func(t *testing.T, data []byte, seal bool) {
		if seal {
			data = sealSnapshot(data)
		}
		tail, snap, err := decodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error escaping classification: %v", err)
			}
			return
		}
		tail2, snap2, err := decodeSnapshot(encodeSnapshot(tail, snap))
		if err != nil || tail2 != tail || !reflect.DeepEqual(snap2, snap) {
			t.Fatalf("rewrite does not load back: tail %d -> %d, %+v -> %+v, %v", tail, tail2, snap, snap2, err)
		}
	})
}

// TestLoadSnapshot_LegacyEntriesSkipped: a snapshot whose trailing
// section still carries retry entries loads with its pairs intact.
func TestLoadSnapshot_LegacyEntriesSkipped(t *testing.T) {
	pairs := []KV{{"a", "1"}, {"b", "2"}}
	tail, snap, err := decodeSnapshot(legacySnapshot(5, pairs, 4))
	if err != nil || tail != 5 || !reflect.DeepEqual(snap.Pairs, pairs) {
		t.Fatalf("legacy snapshot = tail %d, %+v, %v; want tail 5, %v", tail, snap, err, pairs)
	}
}
