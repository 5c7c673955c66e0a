package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// durableConfig is testConfig plus per-node WALs.
func durableConfig(nodes int) Config {
	cfg := testConfig(nodes)
	cfg.Durable = true
	return cfg
}

// TestClusterCounters_WALAppendsAndSyncs: Counters sums every node's WAL
// appends and fsyncs, so a cluster run shows its group-commit ratio. On
// a durable cluster taking concurrent puts both are nonzero and appends
// are at least syncs (an fsync covers one record or more); a
// memory-only cluster reports zero for both.
func TestClusterCounters_WALAppendsAndSyncs(t *testing.T) {
	c := startCluster(t, durableConfig(3))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := c.Put(fmt.Sprintf("w%d-%02d", w, i), "v"); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	cs := c.Counters()
	appends, _ := cs.Get("wal.appends")
	syncs, _ := cs.Get("wal.syncs")
	t.Logf("%v appends in %v fsyncs across 3 nodes", appends, syncs)
	if appends < 200 || syncs == 0 || appends < syncs {
		t.Fatalf("wal.appends = %v, wal.syncs = %v; want an append per put at least, nonzero syncs, appends >= syncs", appends, syncs)
	}

	mem := startCluster(t, testConfig(3))
	if err := mem.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	mc := mem.Counters()
	if a, _ := mc.Get("wal.appends"); a != 0 {
		t.Fatalf("memory-only cluster wal.appends = %v, want 0", a)
	}
	if s, _ := mc.Get("wal.syncs"); s != 0 {
		t.Fatalf("memory-only cluster wal.syncs = %v, want 0", s)
	}
}

// TestClusterDurableRestart_WALRecoversAckedData is the
// acceptance-criteria check at the cluster level: a durable node killed
// (kill -9 semantics) and restarted recovers the writes it acked from
// its own WAL — the EventRestart payload reports the count — so its
// catch-up has next to nothing to copy, because nothing was written
// while it was down.
func TestClusterDurableRestart_WALRecoversAckedData(t *testing.T) {
	var events []Event
	var evMu sync.Mutex
	cfg := durableConfig(3)
	cfg.EventTap = func(e Event) {
		evMu.Lock()
		events = append(events, e)
		evMu.Unlock()
	}
	c := startCluster(t, cfg)

	const keys = 80
	for i := 0; i < keys; i++ {
		if err := c.Put(fmt.Sprintf("key-%03d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := c.Kill("node1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart("node1"); err != nil {
		t.Fatal(err)
	}

	n, err := c.lookup("node1")
	if err != nil {
		t.Fatal(err)
	}
	recovered := n.server().RecoveredKeys()
	if recovered == 0 {
		t.Fatal("durable node came back empty: WAL recovery did not run")
	}
	evMu.Lock()
	var restartDetail string
	for _, e := range events {
		if e.Type == EventRestart && e.Node == "node1" {
			restartDetail = e.Detail
		}
	}
	evMu.Unlock()
	if want := fmt.Sprintf("recovered %d keys", recovered); restartDetail != want {
		t.Fatalf("EventRestart detail = %q, want %q", restartDetail, want)
	}
	// A put returns on W = 2 acks, so a kill right after the last puts
	// can cut node1's fsync of the third copy; the catch-up adds those,
	// and nothing else.
	if got := c.AntiEntropyRepaired(); got >= int64(recovered) {
		t.Fatalf("catch-up repaired %d keys, WAL recovered %d: the log should have done the bulk", got, recovered)
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v, found, err := c.Get(k)
		if err != nil || !found || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) = %q, %v, %v after durable restart", k, v, found, err)
		}
	}
}

// TestClusterDurableRestart_CatchUpTopsUpSuffix: writes that land
// while a durable node is dead reach only its peers; after Restart the
// node's own store holds its WAL-recovered prefix AND the suffix its
// catch-up copied.
func TestClusterDurableRestart_CatchUpTopsUpSuffix(t *testing.T) {
	c := startCluster(t, durableConfig(3))

	for i := 0; i < 40; i++ {
		if err := c.Put(fmt.Sprintf("pre-%03d", i), "old"); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := c.Kill("node2"); err != nil {
		t.Fatal(err)
	}
	c.Probe() // mark it down so the suffix writes skip it instead of timing out
	for i := 0; i < 20; i++ {
		if err := c.Put(fmt.Sprintf("post-%03d", i), "new"); err != nil {
			t.Fatalf("Put while node down: %v", err)
		}
	}
	if err := c.Restart("node2"); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 40; i++ {
		if v, found, err := c.Get(fmt.Sprintf("pre-%03d", i)); err != nil || !found || v != "old" {
			t.Fatalf("pre-crash key lost: %q, %v, %v", v, found, err)
		}
	}
	n, err := c.lookup("node2")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("post-%03d", i)
		if v, found, err := c.Get(k); err != nil || !found || v != "new" {
			t.Fatalf("while-down key lost: %q, %v, %v", v, found, err)
		}
		if raw, found, err := n.client().Get(k); err != nil || !found || !strings.HasSuffix(raw, "new") {
			t.Fatalf("restarted node2 holds %s = %q, %v, %v; want the write its catch-up copied", k, raw, found, err)
		}
	}
}
