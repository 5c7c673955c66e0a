package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/cluster"
)

// aeResult is the JSON line one anti-entropy convergence run appends
// with -json — same file and cell convention as the workload rows, so
// the aggregator folds repeats into mean/stddev and the baseline
// comparator can hold the line on convergence time.
type aeResult struct {
	Label        string  `json:"label"`
	Seed         int64   `json:"seed"`
	Keys         int     `json:"keys"`
	ValueSize    int     `json:"value_size"`
	DurationS    float64 `json:"duration_s"`
	ConvergeMs   float64 `json:"converge_ms"`
	SyncRounds   int64   `json:"sync_rounds"`
	KeysRepaired int64   `json:"keys_repaired"`
	RepairBytes  int64   `json:"repair_bytes"`
}

// runAntiEntropy measures the Merkle-sync convergence path in
// isolation: a 3-node cluster (R=3, W=2, R=2) with hinted handoff
// DISABLED is loaded with `keys` keys, then one memory-only node is
// killed and restarted — it comes back empty, so every key is a
// divergence and anti-entropy is the only way home. The number
// reported is the wall time for SyncNow passes to reach a quiet round,
// plus the repair volume, which must equal the injected divergence
// (the diff moves only what differs).
func runAntiEntropy(keys, valueSize int, seed int64, jsonPath string) int {
	c, err := cluster.New(cluster.Config{
		Nodes: 3, Replicas: 3, WriteQuorum: 2, ReadQuorum: 2,
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  150 * time.Millisecond,
		PoolTimeout:       500 * time.Millisecond,
		DisableHints:      true,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", err)
		return 1
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(seed))
	value := make([]byte, valueSize)
	ctx := context.Background()
	fmt.Printf("anti-entropy convergence bench: %d keys x %dB, 3 nodes, hints disabled, seed %d\n",
		keys, valueSize, seed)
	for i := 0; i < keys; i++ {
		for j := range value {
			value[j] = 'a' + byte(rng.Intn(26))
		}
		if err := c.PutCtx(ctx, fmt.Sprintf("ae-key-%d", i), string(value)); err != nil {
			fmt.Fprintln(os.Stderr, "clusterbench: load:", err)
			return 1
		}
	}

	// Converge before the kill. A write acks at W=2, and the quorum
	// cancels its third-replica copy, so a few keys can be missing on one
	// node already; repairing them here keeps the injected divergence
	// exactly the victim's keys.
	if _, err := syncUntilQuiet(ctx, c); err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench: pre-kill sync:", err)
		return 1
	}

	// Kill + restart: the node is memory-only, so it returns empty.
	victim := c.Nodes()[1]
	if err := c.Kill(victim); err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", err)
		return 1
	}
	if err := c.Restart(victim); err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench:", err)
		return 1
	}

	repairedBefore := c.AntiEntropyRepaired()
	bytesBefore := c.AntiEntropyBytes()
	start := time.Now()
	rounds, err := syncUntilQuiet(ctx, c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterbench: sync:", err)
		return 1
	}
	elapsed := time.Since(start)

	res := aeResult{
		Label:        "antientropy-converge",
		Seed:         seed,
		Keys:         keys,
		ValueSize:    valueSize,
		DurationS:    elapsed.Seconds(),
		ConvergeMs:   float64(elapsed.Microseconds()) / 1e3,
		SyncRounds:   rounds,
		KeysRepaired: c.AntiEntropyRepaired() - repairedBefore,
		RepairBytes:  c.AntiEntropyBytes() - bytesBefore,
	}
	fmt.Printf("converged in %v: %d sync rounds, %d copies rewritten, %d bytes moved (%.0f keys/s)\n",
		elapsed.Round(time.Millisecond), res.SyncRounds, res.KeysRepaired, res.RepairBytes,
		float64(res.KeysRepaired)/elapsed.Seconds())
	if res.KeysRepaired != int64(keys) {
		fmt.Fprintf(os.Stderr, "clusterbench: repaired %d copies, want exactly %d — the diff moved more (or less) than the divergence\n",
			res.KeysRepaired, keys)
		return 1
	}
	if jsonPath != "" {
		if err := appendJSON(jsonPath, res); err != nil {
			fmt.Fprintln(os.Stderr, "clusterbench:", err)
			return 1
		}
	}
	return 0
}

// syncUntilQuiet runs SyncNow passes until one repairs nothing and
// returns how many passes repaired something.
func syncUntilQuiet(ctx context.Context, c *cluster.Cluster) (int64, error) {
	var rounds int64
	for {
		n, err := c.SyncNow(ctx)
		if err != nil {
			return rounds, err
		}
		if n == 0 {
			return rounds, nil
		}
		if rounds++; rounds > 64 {
			return rounds, errors.New("anti-entropy did not converge within 64 passes")
		}
	}
}
