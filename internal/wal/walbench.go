package wal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// BenchResult is one measured durability configuration, exported so
// cmd/clusterbench can emit group-commit comparisons as bench grid
// rows.
type BenchResult struct {
	Writers  int
	Appends  int64
	Syncs    int64
	Duration time.Duration
}

// OpsPerSec is the acked-append throughput.
func (r BenchResult) OpsPerSec() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Appends) / r.Duration.Seconds()
}

// RunGroupCommitBench drives `writers` goroutines, each issuing
// AppendSync in a closed loop for roughly `dur`, against a fresh log
// in dir. serialize=true holds a global mutex across each append so
// every record pays its own fsync — the no-group-commit baseline the
// batched number is compared against.
func RunGroupCommitBench(dir string, writers int, dur time.Duration, serialize bool) (BenchResult, error) {
	l, err := Open(Config{Dir: dir})
	if err != nil {
		return BenchResult{}, err
	}
	defer l.Close()

	var serial sync.Mutex
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &Record{Kind: KindSet, Key: fmt.Sprintf("bench-%03d", w), Value: "0123456789abcdef"}
			for i := 0; !stop.Load(); i++ {
				r.ID = uint64(i + 1)
				var err error
				if serialize {
					serial.Lock()
					err = l.AppendSync(r)
					serial.Unlock()
				} else {
					err = l.AppendSync(r)
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errc:
		return BenchResult{}, err
	default:
	}
	return BenchResult{Writers: writers, Appends: l.Appends(), Syncs: l.Syncs(), Duration: elapsed}, nil
}
