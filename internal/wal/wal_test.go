package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// openCollecting opens dir and gathers whatever recovery produces.
func openCollecting(t *testing.T, dir string) (*Log, *Snapshot, []*Record) {
	t.Helper()
	var snap *Snapshot
	var recs []*Record
	l, err := Open(Config{
		Dir: dir,
		OnSnapshot: func(s *Snapshot) error {
			snap = s
			return nil
		},
		OnRecord: func(r *Record) error {
			recs = append(recs, r)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, snap, recs
}

func TestWAL_AppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openCollecting(t, dir)
	want := []*Record{
		{Kind: KindSet, Key: "a", Value: "1"},
		{Kind: KindDel, Key: "a"},
		{Kind: KindMPut, Pairs: []KV{{"x", "10"}, {"y", "20"}}},
		{Kind: KindMDel, Keys: []string{"x", "y"}},
		{Kind: KindSet, Key: "text-proto", Value: "no dedupe identity"},
	}
	for _, r := range want {
		if err := l.AppendSync(r); err != nil {
			t.Fatalf("AppendSync: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, snap, got := openCollecting(t, dir)
	defer l2.Close()
	if snap != nil {
		t.Fatalf("unexpected snapshot on first recovery")
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		if fmt.Sprintf("%+v", r) != fmt.Sprintf("%+v", want[i]) {
			t.Fatalf("record %d: got %+v want %+v", i, r, want[i])
		}
	}
	if n := l2.RecoveredRecords(); n != int64(len(want)) {
		t.Fatalf("RecoveredRecords = %d, want %d", n, len(want))
	}
}

// TestWAL_GroupCommitBatches drives many concurrent writers and checks
// the commit loop coalesced their fsyncs: with 64 writers racing, the
// sync count must come in well under one per append.
func TestWAL_GroupCommitBatches(t *testing.T) {
	l, _, _ := openCollecting(t, t.TempDir())
	defer l.Close()

	const writers, perWriter = 64, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r := &Record{Kind: KindSet, Key: fmt.Sprintf("k%d", w), Value: "v"}
				if err := l.AppendSync(r); err != nil {
					t.Errorf("AppendSync: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	appends, syncs := l.Appends(), l.Syncs()
	if appends != writers*perWriter {
		t.Fatalf("Appends = %d, want %d", appends, writers*perWriter)
	}
	// Worst case is one sync per append (fully serialized scheduler);
	// any real run with 64 racing writers batches far better. Require
	// at least 2x amortization to catch a broken group commit without
	// flaking on slow machines.
	if syncs*2 > appends {
		t.Fatalf("group commit not batching: %d syncs for %d appends", syncs, appends)
	}
	t.Logf("group commit: %d appends, %d syncs (%.1f appends/sync)",
		appends, syncs, float64(appends)/float64(syncs))
}

func TestWAL_RotateSnapshotRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openCollecting(t, dir)

	state := map[string]string{}
	for i := 0; i < 50; i++ {
		k, v := fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i)
		state[k] = v
		if err := l.AppendSync(&Record{Kind: KindSet, Key: k, Value: v}); err != nil {
			t.Fatalf("AppendSync: %v", err)
		}
	}

	// Snapshot protocol: rotate, then persist state captured after the
	// rotation under the returned tail.
	tail, err := l.Rotate()
	if err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	snap := &Snapshot{}
	for k, v := range state {
		snap.Pairs = append(snap.Pairs, KV{k, v})
	}
	if err := l.WriteSnapshot(tail, snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if got := l.Segments(); got != 1 {
		t.Fatalf("Segments after snapshot = %d, want 1", got)
	}

	// A post-snapshot suffix that must replay on top.
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("post%02d", i)
		state[k] = "s"
		if err := l.AppendSync(&Record{Kind: KindSet, Key: k, Value: "s"}); err != nil {
			t.Fatalf("AppendSync: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, gotSnap, recs := openCollecting(t, dir)
	defer l2.Close()
	if gotSnap == nil {
		t.Fatal("expected snapshot on recovery")
	}
	if !l2.SnapshotLoaded() {
		t.Fatal("SnapshotLoaded = false")
	}
	if len(gotSnap.Pairs) != 50 {
		t.Fatalf("snapshot pairs = %d, want 50", len(gotSnap.Pairs))
	}
	if len(recs) != 10 {
		t.Fatalf("tail records = %d, want 10", len(recs))
	}
	rebuilt := map[string]string{}
	for _, kv := range gotSnap.Pairs {
		rebuilt[kv.Key] = kv.Value
	}
	for _, r := range recs {
		rebuilt[r.Key] = r.Value
	}
	if len(rebuilt) != len(state) {
		t.Fatalf("rebuilt %d keys, want %d", len(rebuilt), len(state))
	}
	for k, v := range state {
		if rebuilt[k] != v {
			t.Fatalf("rebuilt[%q] = %q, want %q", k, rebuilt[k], v)
		}
	}
}

// TestWAL_SizeTriggeredRotation checks the loop seals segments on its
// own once the active file outgrows SegmentBytes.
func TestWAL_SizeTriggeredRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 40; i++ {
		r := &Record{Kind: KindSet, Key: fmt.Sprintf("key%02d", i), Value: "0123456789abcdef"}
		if err := l.AppendSync(r); err != nil {
			t.Fatalf("AppendSync: %v", err)
		}
	}
	if got := l.Segments(); got < 3 {
		t.Fatalf("Segments = %d, want >= 3 after writing past the size threshold repeatedly", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	_, _, recs := openCollecting(t, dir)
	if len(recs) != 40 {
		t.Fatalf("recovered %d records across rotated segments, want 40", len(recs))
	}
}

// TestWAL_CrashLosesOnlyUnacked is the durability contract: after
// Crash, every AppendSync that returned nil is replayed, and the
// truncated tail means nothing else is.
func TestWAL_CrashLosesOnlyUnacked(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openCollecting(t, dir)

	const acked = 30
	for i := 0; i < acked; i++ {
		if err := l.AppendSync(&Record{Kind: KindSet, Key: fmt.Sprintf("k%02d", i), Value: "v"}); err != nil {
			t.Fatalf("AppendSync: %v", err)
		}
	}
	if err := l.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if err := l.AppendSync(&Record{Kind: KindSet, Key: "late", Value: "v"}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("AppendSync after Crash = %v, want ErrCrashed", err)
	}

	_, _, recs := openCollecting(t, dir)
	if len(recs) != acked {
		t.Fatalf("recovered %d records, want exactly the %d acked", len(recs), acked)
	}
}

// TestWAL_TicketThen: a completion callback sees each append's outcome
// exactly once. One registered before the fsync runs after it; one
// registered on a settled ticket runs at once; an oversized record's
// runs at once with ErrTooLarge. Appends a Crash overtakes call back
// with ErrCrashed, and every one that called back nil is replayed.
func TestWAL_TicketThen(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openCollecting(t, dir)

	tk := l.Begin(&Record{Kind: KindSet, Key: "first", Value: "v"})
	got := make(chan error, 1)
	tk.Then(func(err error) {
		if l.Syncs() == 0 {
			t.Error("callback ran before any fsync")
		}
		got <- err
	})
	if err := <-got; err != nil {
		t.Fatalf("callback got %v, want nil", err)
	}
	ran := false
	tk.Then(func(err error) { ran = err == nil })
	if !ran {
		t.Fatal("Then on a settled ticket did not run at once")
	}
	huge := &Record{Kind: KindSet, Key: "huge", Value: string(make([]byte, MaxRecord))}
	l.Begin(huge).Then(func(err error) { ran = errors.Is(err, ErrTooLarge) })
	if !ran {
		t.Fatal("oversized record's callback did not run at once with ErrTooLarge")
	}

	const n = 200
	var mu sync.Mutex
	outcomes := map[string]error{}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%03d", i)
		wg.Add(1)
		l.Begin(&Record{Kind: KindSet, Key: key, Value: "v"}).Then(func(err error) {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			if _, dup := outcomes[key]; dup {
				t.Errorf("%s called back twice", key)
			}
			outcomes[key] = err
		})
	}
	if err := l.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	wg.Wait()

	_, _, recs := openCollecting(t, dir)
	replayed := map[string]bool{}
	for _, r := range recs {
		replayed[r.Key] = true
	}
	for key, err := range outcomes {
		switch {
		case err == nil && !replayed[key]:
			t.Errorf("%s called back durable but was not replayed", key)
		case err != nil && !errors.Is(err, ErrCrashed):
			t.Errorf("%s called back %v, want nil or ErrCrashed", key, err)
		}
	}
}

func TestWAL_ClosedErrors(t *testing.T) {
	l, _, _ := openCollecting(t, t.TempDir())
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.AppendSync(&Record{Kind: KindSet, Key: "k", Value: "v"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("AppendSync after Close = %v, want ErrClosed", err)
	}
	if _, err := l.Rotate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Rotate after Close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestWAL_LeftoverSnapshotTmpRemoved: a crash mid-snapshot leaves the
// tmp file; Open must discard it and recover from the previous state.
func TestWAL_LeftoverSnapshotTmpRemoved(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openCollecting(t, dir)
	if err := l.AppendSync(&Record{Kind: KindSet, Key: "k", Value: "v"}); err != nil {
		t.Fatalf("AppendSync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	tmp := filepath.Join(dir, snapTmpName)
	if err := os.WriteFile(tmp, []byte("half-written garbage"), 0o644); err != nil {
		t.Fatalf("plant tmp: %v", err)
	}

	l2, snap, recs := openCollecting(t, dir)
	defer l2.Close()
	if snap != nil {
		t.Fatal("tmp file must not be loaded as a snapshot")
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d records, want 1", len(recs))
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("leftover tmp not removed: %v", err)
	}
}

// TestWAL_OversizedRecordRejected: a record too big for replay to ever
// accept must be refused at append time with ErrTooLarge — writing and
// fsyncing it would make every subsequent Open fail with ErrCorrupt,
// bricking the node's log. The log stays fully usable afterwards.
func TestWAL_OversizedRecordRejected(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openCollecting(t, dir)
	big := &Record{Kind: KindSet, Key: "k", Value: string(make([]byte, MaxRecord+1))}
	if err := l.AppendSync(big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("AppendSync(oversized) = %v, want ErrTooLarge", err)
	}
	if err := l.AppendSync(&Record{Kind: KindSet, Key: "k", Value: "small"}); err != nil {
		t.Fatalf("AppendSync after rejected oversize: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, _, recs := openCollecting(t, dir) // replay must not see poisoned bytes
	defer l2.Close()
	if len(recs) != 1 || recs[0].Value != "small" {
		t.Fatalf("recovered %+v, want just the small record", recs)
	}
}

// TestWAL_RotateFailureDoesNotDoubleClose: when rotation closes the old
// active segment but cannot open the next (a directory planted at the
// next segment path forces EISDIR), Close must surface the latched root
// cause — not a spurious "file already closed" from re-closing the old
// segment.
func TestWAL_RotateFailureDoesNotDoubleClose(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openCollecting(t, dir)
	if err := l.AppendSync(&Record{Kind: KindSet, Key: "k", Value: "v"}); err != nil {
		t.Fatalf("AppendSync: %v", err)
	}
	// Fresh log: active segment is 00000001.seg, so rotation opens
	// 00000002.seg next. A directory there makes OpenFile fail.
	if err := os.Mkdir(filepath.Join(dir, "00000002.seg"), 0o755); err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	if _, err := l.Rotate(); err == nil {
		t.Fatal("Rotate succeeded opening a directory as a segment")
	}
	if err := l.AppendSync(&Record{Kind: KindSet, Key: "k", Value: "v2"}); err == nil {
		t.Fatal("AppendSync succeeded after latched rotation failure")
	}
	err := l.Close()
	if err == nil {
		t.Fatal("Close = nil, want the latched rotation error")
	}
	if errors.Is(err, os.ErrClosed) {
		t.Fatalf("Close = %v: double-closed the old segment instead of surfacing the root cause", err)
	}
}
