package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

// randomRecord draws one record with a small keyspace (so replay sees
// plenty of per-key overwrites) and a mix of every kind, including
// multi-key batches that span stripes.
func randomRecord(rng *rand.Rand) *Record {
	key := func() string { return fmt.Sprintf("k%02d", rng.Intn(40)) }
	r := &Record{}
	switch n := rng.Intn(10); {
	case n < 7:
		r.Kind, r.Key, r.Value = KindSet, key(), fmt.Sprintf("v%d", rng.Int63())
	case n < 8:
		r.Kind, r.Key = KindDel, key()
	case n < 9:
		r.Kind = KindMPut
		for i := 0; i < 2+rng.Intn(3); i++ {
			r.Pairs = append(r.Pairs, KV{Key: key(), Value: fmt.Sprintf("mv%d", rng.Int63())})
		}
	default:
		r.Kind = KindMDel
		for i := 0; i < 2+rng.Intn(2); i++ {
			r.Keys = append(r.Keys, key())
		}
	}
	return r
}

// genDir synthesizes a multi-segment log directory: optional snapshot,
// several sealed-shaped segments, and optionally a torn frame at the
// tail of the newest one. Returns the records written to segments the
// snapshot does not cover (i.e., what replay must deliver).
func genDir(t *testing.T, dir string, rng *rand.Rand) []*Record {
	t.Helper()
	tail := uint64(1)
	if rng.Intn(2) == 0 {
		tail = uint64(1 + rng.Intn(2))
		snap := &Snapshot{}
		for i := 0; i < rng.Intn(20); i++ {
			snap.Pairs = append(snap.Pairs, KV{Key: fmt.Sprintf("k%02d", i), Value: "snapval"})
		}
		if err := writeSnapshotFile(dir, tail, snap); err != nil {
			t.Fatal(err)
		}
	}
	nseg := 1 + rng.Intn(4)
	var live []*Record
	for seq := uint64(1); seq <= uint64(nseg); seq++ {
		var buf []byte
		for i := 0; i < 5+rng.Intn(60); i++ {
			r := randomRecord(rng)
			buf = AppendStreamRecord(buf, r)
			if seq >= tail {
				live = append(live, r)
			}
		}
		if seq == uint64(nseg) && rng.Intn(2) == 0 {
			frame := AppendStreamRecord(nil, randomRecord(rng))
			buf = append(buf, frame[:1+rng.Intn(len(frame)-1)]...) // torn tail
		}
		path := filepath.Join(dir, fmt.Sprintf("%08d.seg", seq))
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return live
}

// replayModel is a concurrency-safe fold of a replayed record stream:
// final store contents. A single mutex is deliberate — the model must
// be order-sensitive per key, not fast.
type replayModel struct {
	mu    sync.Mutex
	store map[string]string
}

func newReplayModel() *replayModel {
	return &replayModel{store: map[string]string{}}
}

func (m *replayModel) apply(r *Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch r.Kind {
	case KindSet:
		m.store[r.Key] = r.Value
	case KindDel:
		delete(m.store, r.Key)
	case KindMPut:
		for _, kv := range r.Pairs {
			m.store[kv.Key] = kv.Value
		}
	case KindMDel:
		for _, k := range r.Keys {
			delete(m.store, k)
		}
	}
	return nil
}

func (m *replayModel) equal(o *replayModel) bool {
	if len(m.store) != len(o.store) {
		return false
	}
	for k, v := range m.store {
		if o.store[k] != v {
			return false
		}
	}
	return true
}

// segSizes is the post-recovery on-disk layout: name → size for every
// segment file. Serial and parallel recovery must truncate identically.
func segSizes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int64{}
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".seg" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		sizes[e.Name()] = info.Size()
	}
	return sizes
}

// TestParallelReplay_EquivalenceProperty replays identical randomized
// multi-segment logs (snapshots, batch records, torn tails included)
// serially and in parallel, and requires identical store contents,
// replayed-record counts, and truncated file sizes.
func TestParallelReplay_EquivalenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			dirSerial, dirPar := t.TempDir(), t.TempDir()
			genDir(t, dirSerial, rand.New(rand.NewSource(seed)))
			genDir(t, dirPar, rand.New(rand.NewSource(seed)))

			open := func(dir string, workers int) (*replayModel, *Log) {
				m := newReplayModel()
				l, err := Open(Config{Dir: dir, ReplayWorkers: workers, OnRecord: m.apply, OnSnapshot: func(s *Snapshot) error {
					for _, kv := range s.Pairs {
						m.store[kv.Key] = kv.Value
					}
					return nil
				}})
				if err != nil {
					t.Fatalf("open %s (workers=%d): %v", dir, workers, err)
				}
				return m, l
			}
			ms, ls := open(dirSerial, 1)
			mp, lp := open(dirPar, 8)
			defer ls.Close()
			defer lp.Close()

			if !ms.equal(mp) {
				t.Fatalf("parallel replay state diverged from serial\nserial: %d keys\nparallel: %d keys",
					len(ms.store), len(mp.store))
			}
			if ls.RecoveredRecords() != lp.RecoveredRecords() {
				t.Fatalf("recovered record counts diverged: serial %d parallel %d", ls.RecoveredRecords(), lp.RecoveredRecords())
			}
			ss, sp := segSizes(t, dirSerial), segSizes(t, dirPar)
			var names []string
			for name := range ss {
				names = append(names, name)
			}
			sort.Strings(names)
			if len(ss) != len(sp) {
				t.Fatalf("segment counts diverged: serial %v parallel %v", ss, sp)
			}
			for _, name := range names {
				if ss[name] != sp[name] {
					t.Fatalf("truncated sizes diverged at %s: serial %d parallel %d", name, ss[name], sp[name])
				}
			}
		})
	}
}

// TestParallelReplay_TornTailTruncated checks the parallel path honors
// the serial tear contract: a frame sheared off at the tail of the
// newest segment is truncated away, and replay delivers everything
// before it.
func TestParallelReplay_TornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	var buf []byte
	for i := 0; i < 10; i++ {
		buf = AppendStreamRecord(buf, &Record{Kind: KindSet, Key: fmt.Sprintf("k%d", i), Value: "v"})
	}
	whole := len(buf)
	frame := AppendStreamRecord(nil, &Record{Kind: KindSet, Key: "torn", Value: "never-acked"})
	buf = append(buf, frame[:len(frame)-3]...)
	path := filepath.Join(dir, "00000001.seg")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got int
	l, err := Open(Config{Dir: dir, ReplayWorkers: 4, OnRecord: func(r *Record) error {
		mu.Lock()
		got++
		mu.Unlock()
		if r.Key == "torn" {
			t.Error("torn record must not replay")
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got != 10 {
		t.Fatalf("replayed %d records, want 10", got)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != int64(whole) {
		t.Fatalf("torn tail not truncated: size %d want %d", info.Size(), whole)
	}
}

// TestParallelReplay_InteriorCorruptionFails checks both a torn frame
// inside a sealed segment and a flipped payload byte fail the parallel
// open loudly with ErrCorrupt, before any record is applied from the
// poisoned region.
func TestParallelReplay_InteriorCorruptionFails(t *testing.T) {
	mk := func(t *testing.T) (string, []byte) {
		dir := t.TempDir()
		var buf []byte
		for i := 0; i < 20; i++ {
			buf = AppendStreamRecord(buf, &Record{Kind: KindSet, Key: fmt.Sprintf("k%d", i), Value: "v"})
		}
		return dir, buf
	}
	t.Run("torn-sealed", func(t *testing.T) {
		dir, buf := mk(t)
		if err := os.WriteFile(filepath.Join(dir, "00000001.seg"), buf[:len(buf)-2], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "00000002.seg"), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(Config{Dir: dir, ReplayWorkers: 4})
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("want ErrCorrupt for torn sealed segment, got %v", err)
		}
	})
	t.Run("flipped-byte", func(t *testing.T) {
		dir, buf := mk(t)
		buf[len(buf)/3] ^= 0x40
		if err := os.WriteFile(filepath.Join(dir, "00000001.seg"), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "00000002.seg"), AppendStreamRecord(nil, &Record{Kind: KindSet, Key: "x", Value: "y"}), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(Config{Dir: dir, ReplayWorkers: 4})
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("want ErrCorrupt for flipped byte, got %v", err)
		}
	})
}
