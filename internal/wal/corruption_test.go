package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// seg builds a valid segment image from records.
func seg(recs ...*Record) []byte {
	var buf []byte
	for _, r := range recs {
		buf = appendFrame(buf, r.encode(nil))
	}
	return buf
}

func rec(i int) *Record {
	return &Record{Kind: KindSet, Key: fmt.Sprintf("k%d", i), Value: "v"}
}

// TestReplaySegment_CorruptionMatrix is the table the issue asks for:
// each mutation of a valid segment, with whether replay must tolerate
// it (torn tail, truncated away) or fail loudly (ErrCorrupt).
func TestReplaySegment_CorruptionMatrix(t *testing.T) {
	cases := []struct {
		name    string
		build   func() (data []byte, last bool)
		wantErr bool // ErrCorrupt expected
		recs    int  // records replayed before the verdict
	}{
		{
			name: "clean segment",
			build: func() ([]byte, bool) {
				return seg(rec(1), rec(2), rec(3)), true
			},
			recs: 3,
		},
		{
			name: "truncated tail record tolerated on last segment",
			build: func() ([]byte, bool) {
				data := seg(rec(1), rec(2))
				return data[:len(data)-3], true // shear the final frame
			},
			recs: 1,
		},
		{
			name: "truncated tail record fatal on sealed segment",
			build: func() ([]byte, bool) {
				data := seg(rec(1), rec(2))
				return data[:len(data)-3], false
			},
			wantErr: true,
			recs:    1,
		},
		{
			name: "length header alone at tail tolerated",
			build: func() ([]byte, bool) {
				data := seg(rec(1))
				return append(data, 0x05), true // 5-byte frame announced, nothing behind it
			},
			recs: 1,
		},
		{
			name: "bit-flipped CRC fails loudly",
			build: func() ([]byte, bool) {
				data := seg(rec(1), rec(2))
				// Flip a bit inside the second frame's payload.
				data[len(data)-2] ^= 0x40
				return data, true
			},
			wantErr: true,
			recs:    1,
		},
		{
			name: "oversized length header fails loudly",
			build: func() ([]byte, bool) {
				data := seg(rec(1))
				return append(binary.AppendUvarint(nil, MaxRecord+1), data...), true
			},
			wantErr: true,
		},
		{
			name: "overlong varint length fails loudly",
			build: func() ([]byte, bool) {
				// 11 continuation bytes: no valid uvarint, but not a tear.
				bad := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
				return bad, true
			},
			wantErr: true,
		},
		{
			name: "zero-length record fails loudly",
			build: func() ([]byte, bool) {
				return []byte{0x00}, true
			},
			wantErr: true,
		},
		{
			name: "zero-length key fails loudly",
			build: func() ([]byte, bool) {
				r := &Record{Kind: KindSet, Key: "", Value: "v"}
				return appendFrame(nil, r.encode(nil)), true
			},
			wantErr: true,
		},
		{
			name: "unknown kind fails loudly",
			build: func() ([]byte, bool) {
				payload := []byte{0x7f, 0x00, 0x00}
				return appendFrame(nil, payload), true
			},
			wantErr: true,
		},
		{
			name: "mid-segment torn write fails loudly even on last segment",
			build: func() ([]byte, bool) {
				// A sheared frame followed by more valid frames: an
				// interior hole, not a tail tear. The shear swallows the
				// next frame's bytes as payload, so the CRC screams.
				torn := seg(rec(1))
				torn = torn[:len(torn)-2]
				return append(torn, seg(rec(2), rec(3))...), true
			},
			wantErr: true,
		},
		{
			name: "trailing payload bytes fail loudly",
			build: func() ([]byte, bool) {
				r := rec(1)
				payload := append(r.encode(nil), 0xEE)
				return appendFrame(nil, payload), true
			},
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, last := tc.build()
			var got int
			valid, recs, err := replaySegment(data, last, func(*Record) error { got++; return nil })
			if tc.wantErr {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("err = %v, want ErrCorrupt", err)
				}
			} else {
				if err != nil {
					t.Fatalf("err = %v, want nil", err)
				}
				if valid > int64(len(data)) {
					t.Fatalf("valid %d > len %d", valid, len(data))
				}
			}
			if recs != tc.recs || got != tc.recs {
				t.Fatalf("replayed %d records (callback %d), want %d", recs, got, tc.recs)
			}
		})
	}
}

// TestOpen_InteriorCorruptionFailsLoudly plants a bit flip in a sealed
// segment on disk and checks Open refuses to serve around it.
func TestOpen_InteriorCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, SegmentBytes: 128})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 20; i++ {
		if err := l.AppendSync(rec(i)); err != nil {
			t.Fatalf("AppendSync: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Corrupt the first (sealed) segment.
	path := filepath.Join(dir, "00000001.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write corrupt segment: %v", err)
	}

	if _, err := Open(Config{Dir: dir}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over corrupt sealed segment = %v, want ErrCorrupt", err)
	}
}

// TestOpen_TornTailTruncatedOnDisk checks the torn suffix is physically
// removed so the next incarnation appends to a clean boundary.
func TestOpen_TornTailTruncatedOnDisk(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := l.AppendSync(rec(i)); err != nil {
			t.Fatalf("AppendSync: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Shear the last frame on disk.
	path := filepath.Join(dir, "00000001.seg")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	l2, _, recs := openCollecting(t, dir)
	defer l2.Close()
	if len(recs) != 4 {
		t.Fatalf("recovered %d records, want 4 (torn 5th dropped)", len(recs))
	}
	fi, err = os.Stat(path)
	if err != nil {
		t.Fatalf("stat after recovery: %v", err)
	}
	if want := int64(len(seg(rec(0), rec(1), rec(2), rec(3)))); fi.Size() != want {
		t.Fatalf("segment size after truncation = %d, want %d", fi.Size(), want)
	}
}

func TestLoadSnapshotFile_Corruption(t *testing.T) {
	dir := t.TempDir()
	snap := &Snapshot{Pairs: []KV{{"a", "1"}}}
	if err := writeSnapshotFile(dir, 3, snap); err != nil {
		t.Fatalf("writeSnapshotFile: %v", err)
	}
	path := filepath.Join(dir, snapName)

	tail, got, err := loadSnapshotFile(path)
	if err != nil || tail != 3 || len(got.Pairs) != 1 {
		t.Fatalf("roundtrip: tail=%d snap=%+v err=%v", tail, got, err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bit flip", func(b []byte) []byte { b = append([]byte(nil), b...); b[len(b)/2] ^= 0x10; return b }},
		{"bad magic", func(b []byte) []byte { b = append([]byte(nil), b...); b[0] ^= 0xFF; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-5] }},
		{"trailing bytes", func(b []byte) []byte {
			// Valid CRC over an extended payload but trailing garbage
			// after the parsed structure: rebuild with an extra byte.
			payload := append(append([]byte(nil), b[len(snapMagic):len(b)-4]...), 0xAB)
			out := append([]byte(snapMagic), payload...)
			var crc [4]byte
			binary.BigEndian.PutUint32(crc[:], crc32.Checksum(payload, castagnoli))
			return append(out, crc[:]...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.mutate(data), 0o644); err != nil {
				t.Fatalf("write: %v", err)
			}
			if _, _, err := loadSnapshotFile(path); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}
