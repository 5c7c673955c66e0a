package main

import (
	"fmt"
	"math"
	"strconv"
)

// rng is a splitmix64 stream: tiny, fast, and identical on every
// platform and Go release, so a seed names one input stream forever.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipfian is YCSB's ZipfianGenerator (Gray et al., "Quickly Generating
// Billion-Record Synthetic Databases"): item 0 is the hottest, and item
// i is drawn with probability proportional to 1/(i+1)^theta.
type zipfian struct {
	items             float64
	theta, alpha, eta float64
	zetan, half       float64
}

func newZipfian(items int, theta float64) *zipfian {
	zeta := func(n int) float64 {
		sum := 0.0
		for i := 1; i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	z := &zipfian{items: float64(items), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(items)}
	z.eta = (1 - math.Pow(2/z.items, 1-theta)) / (1 - zeta(2)/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipfian) next(r *rng) int {
	u := r.float()
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < z.half:
		return 1
	}
	i := int(z.items * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if i >= int(z.items) {
		i = int(z.items) - 1
	}
	return i
}

// op is one generated operation: a key index and whether it writes.
type op struct {
	key uint32
	put bool
}

// inputs is everything a run feeds the store, generated from the seed
// before any clock starts. Key i is written only by writer owner(i),
// so each key's writes come from one sequential source and "the last
// acknowledged value" is well defined.
type inputs struct {
	keys    []string
	writers int
	// streams holds one op stream per closed-loop client, or a single
	// stream for the open loop. Closed-loop clients cycle through
	// theirs, so a faster store never runs out of input.
	streams [][]op
}

func (in *inputs) owner(key int) int { return key % in.writers }

// keyName renders key index i; fixed width keeps every key the same size.
func keyName(i int) string { return fmt.Sprintf("k%07d", i) }

// generate builds the key names and op streams for w from seed: streams
// streams of length n each. Every put in stream s targets a key owned by
// writer s. The open loop's single stream writes for every owner, and
// its ops overlap in time, so there a put is redrawn while its key was
// written fewer than gap ops earlier: two writes to one key are then
// never in flight together and their order is their stream order.
func generate(w workload, seed uint64, keys, writers, streams, n, gap int) *inputs {
	in := &inputs{keys: make([]string, keys), writers: writers, streams: make([][]op, streams)}
	for i := range in.keys {
		in.keys[i] = keyName(i)
	}
	var z *zipfian
	if w.zipf {
		z = newZipfian(keys, 0.99)
	}
	draw := func(r *rng) int {
		if z != nil {
			return z.next(r)
		}
		return int(r.next() % uint64(keys))
	}
	for s := range in.streams {
		r := &rng{s: seed*0x2545f4914f6cdd1d + uint64(s+1)*0xd1b54a32d192ed03}
		lastPut := make(map[int]int)
		ops := make([]op, n)
		for i := range ops {
			k := draw(r)
			put := r.float() < w.writeFrac
			if put && streams > 1 && in.owner(k) != s {
				// Move the write to the nearest key this writer owns.
				k += s - in.owner(k)
				if k >= keys {
					k -= writers
				}
			}
			if put && gap > 0 {
				tries := 0
				for last, ok := lastPut[k]; ok && i-last < gap; last, ok = lastPut[k] {
					if tries++; tries > 64 {
						put = false
						break
					}
					k = draw(r)
				}
				if put {
					lastPut[k] = i
				}
			}
			ops[i] = op{key: uint32(k), put: put}
		}
		in.streams[s] = ops
	}
	return in
}

// makeValue renders the self-describing value "key|writer|seq|" padded
// to size with one letter derived from seq, so a foreign, stale,
// truncated or corrupted value can be recognised from its bytes alone.
func makeValue(key string, writer int, seq int64, size int) string {
	b := make([]byte, 0, size)
	b = append(b, key...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(writer), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, seq, 10)
	b = append(b, '|')
	pad := padByte(seq)
	for len(b) < size {
		b = append(b, pad)
	}
	return string(b)
}

func padByte(seq int64) byte { return 'a' + byte(seq%26) }
