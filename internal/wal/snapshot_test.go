package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// encodeSnapshot renders a snapshot file in memory through the
// streaming writer.
func encodeSnapshot(tail uint64, snap *Snapshot) []byte {
	var b bytes.Buffer
	writeSnapshot(&b, tail, snap) //nolint:errcheck // a bytes.Buffer does not fail
	return b.Bytes()
}

// encodeSnapshotWhole is the encoder snapshots were written with before
// the writer streamed: the whole file built in one growing buffer.
func encodeSnapshotWhole(tail uint64, snap *Snapshot) []byte {
	buf := append([]byte(snapMagic), binary.AppendUvarint(nil, tail)...)
	buf = binary.AppendUvarint(buf, uint64(len(snap.Pairs)))
	for _, kv := range snap.Pairs {
		buf = appendString(buf, kv.Key)
		buf = appendString(buf, kv.Value)
	}
	buf = append(buf, 0) // the legacy section: no entries
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[len(snapMagic):], castagnoli))
}

// TestSnapshotStreamMatchesWholeEncoder: the file the streaming writer
// leaves on disk is byte for byte the file the whole-buffer encoder
// built — for an empty snapshot, small pairs, and values larger than
// the writer's buffer — so snapshots written either way load alike.
func TestSnapshotStreamMatchesWholeEncoder(t *testing.T) {
	var many []KV
	for i := 0; i < 5000; i++ {
		many = append(many, KV{Key: "key-" + strings.Repeat("k", i%7) + string(rune('a'+i%26)), Value: strings.Repeat("v", i%300)})
	}
	for name, snap := range map[string]*Snapshot{
		"empty": {},
		"small": {Pairs: []KV{{"a", "1"}, {"b", "\x01v\x00x"}, {"c", ""}}},
		"large": {Pairs: []KV{{"big", strings.Repeat("x", 200<<10)}, {"after", "y"}, {"big2", strings.Repeat("z", 64<<10)}}},
		"many":  {Pairs: many},
	} {
		dir := t.TempDir()
		if err := writeSnapshotFile(dir, 9, snap); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := os.ReadFile(filepath.Join(dir, snapName))
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeSnapshotWhole(9, snap); !bytes.Equal(got, want) {
			t.Fatalf("%s: streamed file (%d bytes) differs from the whole-buffer encoding (%d bytes)", name, len(got), len(want))
		}
		if tail, back, err := decodeSnapshot(got); err != nil || tail != 9 || len(back.Pairs) != len(snap.Pairs) {
			t.Fatalf("%s: reload = tail %d, %d pairs, %v", name, tail, len(back.Pairs), err)
		}
	}
}
