package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// checker verifies every value the store returns against what the
// benchmark wrote. Each key has one writer, which issues seq 0 at
// preload and then 1, 2, … in order, so for every key the checker knows
// the highest seq ever sent (issued) and the highest seq the store
// acknowledged (acked). A read is right when it carries its own key,
// its owner's writer id, an intact pad, and a seq between the acked seq
// when the read was sent and the issued seq when it returned.
type checker struct {
	in        *inputs
	valueSize int
	issued    []atomic.Int64
	acked     []atomic.Int64

	wrong    atomic.Int64
	mu       sync.Mutex
	firstBad string
}

func newChecker(in *inputs, valueSize int) *checker {
	return &checker{in: in, valueSize: valueSize,
		issued: make([]atomic.Int64, len(in.keys)), acked: make([]atomic.Int64, len(in.keys))}
}

// reset forgets every write: the state right after a preload, which
// writes seq 0 to every key.
func (c *checker) reset() {
	for i := range c.issued {
		c.issued[i].Store(0)
		c.acked[i].Store(0)
	}
	c.wrong.Store(0)
	c.firstBad = ""
}

// nextValue reserves key's next seq and returns the value to write.
// Only the key's single writer calls it, so the seq order is the send
// order.
func (c *checker) nextValue(key int) (seq int64, value string) {
	seq = c.issued[key].Load() + 1
	c.issued[key].Store(seq)
	return seq, makeValue(c.in.keys[key], c.in.owner(key), seq, c.valueSize)
}

// ack records that the store acknowledged seq for key.
func (c *checker) ack(key int, seq int64) {
	for {
		cur := c.acked[key].Load()
		if seq <= cur || c.acked[key].CompareAndSwap(cur, seq) {
			return
		}
	}
}

// parseValue splits "key|writer|seq|pad" and verifies the pad.
func parseValue(v string, size int) (key string, writer int, seq int64, err error) {
	if len(v) != size {
		return "", 0, 0, fmt.Errorf("value is %d bytes, want %d", len(v), size)
	}
	parts := strings.SplitN(v, "|", 4)
	if len(parts) != 4 {
		return "", 0, 0, fmt.Errorf("value %.40q is not key|writer|seq|pad", v)
	}
	if writer, err = strconv.Atoi(parts[1]); err != nil {
		return "", 0, 0, fmt.Errorf("value %.40q has a bad writer", v)
	}
	if seq, err = strconv.ParseInt(parts[2], 10, 64); err != nil || seq < 0 {
		return "", 0, 0, fmt.Errorf("value %.40q has a bad seq", v)
	}
	pad := padByte(seq)
	for i := 0; i < len(parts[3]); i++ {
		if parts[3][i] != pad {
			return "", 0, 0, fmt.Errorf("value %.40q has a corrupt pad at byte %d", v, len(v)-len(parts[3])+i)
		}
	}
	return parts[0], writer, seq, nil
}

// verify checks one value read for key against the seq window [lo, hi].
func (c *checker) verify(key int, v string, found bool, lo, hi int64) error {
	name := c.in.keys[key]
	if !found {
		return fmt.Errorf("%s: not found", name)
	}
	k, writer, seq, err := parseValue(v, c.valueSize)
	switch {
	case err != nil:
		return fmt.Errorf("%s: %v", name, err)
	case k != name:
		return fmt.Errorf("%s: read a value of foreign key %s", name, k)
	case writer != c.in.owner(key):
		return fmt.Errorf("%s: written by %d, but only writer %d writes it", name, writer, c.in.owner(key))
	case seq < lo:
		return fmt.Errorf("%s: seq %d regressed below acknowledged seq %d", name, seq, lo)
	case seq > hi:
		return fmt.Errorf("%s: seq %d was never issued (highest %d)", name, seq, hi)
	}
	return nil
}

// checkRead verifies a read of key sent when acked was ackedAtSend,
// and counts it when wrong.
func (c *checker) checkRead(key int, v string, found bool, ackedAtSend int64) bool {
	return c.count(c.verify(key, v, found, ackedAtSend, c.issued[key].Load()))
}

// checkFinal verifies a read made after all writes have returned: it
// must show the last acknowledged value, or a later write whose ack was
// lost.
func (c *checker) checkFinal(key int, v string, found bool) bool {
	return c.count(c.verify(key, v, found, c.acked[key].Load(), c.issued[key].Load()))
}

func (c *checker) count(err error) bool {
	if err == nil {
		return true
	}
	c.wrong.Add(1)
	c.mu.Lock()
	if c.firstBad == "" {
		c.firstBad = err.Error()
	}
	c.mu.Unlock()
	return false
}

// written lists the keys with at least one write beyond the preload.
func (c *checker) written() []int {
	var keys []int
	for i := range c.issued {
		if c.issued[i].Load() > 0 {
			keys = append(keys, i)
		}
	}
	return keys
}
