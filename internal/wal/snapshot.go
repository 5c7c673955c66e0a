package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

const (
	snapName    = "snapshot"
	snapTmpName = "snapshot.tmp"
	snapMagic   = "walsnp01"
)

// Snapshot is the compacted state a log owner persists between
// snapshots: the full store contents. Everything else is reconstructed
// by replaying the segment tail over it.
//
// The file ends with a counted section that older snapshots filled with
// (uvarint, uvarint, string) retry entries. The writer writes a count
// of zero and the loader skips any entries it finds, so those snapshots
// still load.
type Snapshot struct {
	Pairs []KV
}

// writeSnapshotFile persists one snapshot atomically: full payload into
// a tmp file, fsync, rename over the live name. A crash mid-write
// leaves the tmp (removed on the next Open) and the previous snapshot
// intact; there is no state in which a half-written snapshot is ever
// loaded. tail is the first segment sequence NOT covered — replay
// starts there.
func writeSnapshotFile(dir string, tail uint64, snap *Snapshot) error {
	tmp := filepath.Join(dir, snapTmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = writeSnapshot(f, tail, snap)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, snapName))
}

// writeSnapshot streams a snapshot file to w: magic, payload, CRC32C of
// the payload. The payload passes through a buffered writer whose
// flushes feed the CRC on their way out, so no buffer ever holds the
// whole file.
func writeSnapshot(w io.Writer, tail uint64, snap *Snapshot) error {
	if _, err := io.WriteString(w, snapMagic); err != nil {
		return err
	}
	cw := &crcWriter{w: w}
	bw := bufio.NewWriterSize(cw, 64<<10)
	var n [binary.MaxVarintLen64]byte
	// bufio.Writer latches its first error: the writes below need no
	// checks, Flush reports it.
	bw.Write(binary.AppendUvarint(n[:0], tail))
	bw.Write(binary.AppendUvarint(n[:0], uint64(len(snap.Pairs))))
	for _, kv := range snap.Pairs {
		bw.Write(binary.AppendUvarint(n[:0], uint64(len(kv.Key))))
		bw.WriteString(kv.Key)
		bw.Write(binary.AppendUvarint(n[:0], uint64(len(kv.Value))))
		bw.WriteString(kv.Value)
	}
	bw.WriteByte(0) // the legacy section: no entries
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(binary.BigEndian.AppendUint32(n[:0], cw.crc))
	return err
}

// crcWriter passes writes on to w, folding every byte written into a
// running CRC32C.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	return n, err
}

// loadSnapshotFile reads the snapshot back. A missing file returns
// (0, nil, nil): recovery then replays every segment from the
// beginning.
func loadSnapshotFile(path string) (tail uint64, snap *Snapshot, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil, nil
	}
	if err != nil {
		return 0, nil, err
	}
	return decodeSnapshot(data)
}

// decodeSnapshot parses a snapshot file, verifying magic and CRC. Any
// malformed byte is ErrCorrupt — the atomic write protocol means a bad
// snapshot is bit rot, not a tear.
func decodeSnapshot(data []byte) (tail uint64, snap *Snapshot, err error) {
	if len(data) < len(snapMagic)+4 || string(data[:len(snapMagic)]) != snapMagic {
		return 0, nil, fmt.Errorf("%w: snapshot header", ErrCorrupt)
	}
	payload := data[len(snapMagic) : len(data)-4]
	want := binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(payload, castagnoli) != want {
		return 0, nil, fmt.Errorf("%w: snapshot CRC mismatch", ErrCorrupt)
	}
	c := &cursor{buf: payload}
	if tail, err = c.uvarint(); err != nil {
		return 0, nil, err
	}
	snap = &Snapshot{}
	n, err := c.count()
	if err != nil {
		return 0, nil, err
	}
	snap.Pairs = make([]KV, 0, n)
	for i := 0; i < n; i++ {
		var kv KV
		if kv.Key, err = c.key(); err != nil {
			return 0, nil, err
		}
		if kv.Value, err = c.str(); err != nil {
			return 0, nil, err
		}
		snap.Pairs = append(snap.Pairs, kv)
	}
	if n, err = c.count(); err != nil {
		return 0, nil, err
	}
	for i := 0; i < n; i++ { // legacy entries: skipped
		if _, err := c.uvarint(); err != nil {
			return 0, nil, err
		}
		if _, err := c.uvarint(); err != nil {
			return 0, nil, err
		}
		if _, err := c.str(); err != nil {
			return 0, nil, err
		}
	}
	if len(c.buf) != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing snapshot bytes", ErrCorrupt, len(c.buf))
	}
	return tail, snap, nil
}
