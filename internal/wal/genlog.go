package wal

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
)

// GenerateLog synthesizes a recovery workload on disk — the directory a
// crashed node would leave behind — without paying a live server's
// fsync-per-batch cost, so recovery benchmarks measure replay, not log
// construction. It simulates a server that snapshotted every snapEvery
// records: the snapshot holds the folded state of every record before
// the last snapshot point, and the records after it land in 4 MiB
// segment files for Open to replay. snapEvery <= 0 writes no snapshot —
// every record goes to segments (the pure-replay worst case).
//
// Records are KindSet, keys drawn from a keyspace
// half the record count (so replay exercises overwrites, not just
// inserts), and valueSize random bytes per value, all derived from seed.
func GenerateLog(dir string, records, valueSize int, seed int64, snapEvery int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	keyspace := records / 2
	if keyspace < 1 {
		keyspace = 1
	}
	val := make([]byte, valueSize)
	mkRecord := func(i int) *Record {
		rng.Read(val)
		return &Record{
			Kind:  KindSet,
			Key:   fmt.Sprintf("key%08d", rng.Intn(keyspace)),
			Value: string(val),
		}
	}

	snapCovered := 0
	seq := uint64(1)
	if snapEvery > 0 && snapEvery < records {
		snapCovered = (records / snapEvery) * snapEvery
		if snapCovered == records {
			snapCovered -= snapEvery
		}
		state := make(map[string]string, keyspace)
		var order []string
		for i := 0; i < snapCovered; i++ {
			r := mkRecord(i)
			if _, ok := state[r.Key]; !ok {
				order = append(order, r.Key)
			}
			state[r.Key] = r.Value
		}
		snap := &Snapshot{Pairs: make([]KV, 0, len(order))}
		for _, k := range order {
			snap.Pairs = append(snap.Pairs, KV{Key: k, Value: state[k]})
		}
		if err := writeSnapshotFile(dir, seq, snap); err != nil {
			return err
		}
	}

	const segBytes = 4 << 20
	var buf []byte
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		path := filepath.Join(dir, fmt.Sprintf("%08d.seg", seq))
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			return err
		}
		seq++
		buf = buf[:0]
		return nil
	}
	for i := snapCovered; i < records; i++ {
		buf = AppendStreamRecord(buf, mkRecord(i))
		if len(buf) > segBytes {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}
