package main

import (
	"bytes"
	"fmt"
	"testing"
)

// encode renders everything generate produced, plus the values each
// put would write, as bytes.
func encode(in *inputs, valueSize int) []byte {
	var buf bytes.Buffer
	fmt.Fprintln(&buf, in.keys, in.writers)
	for s, ops := range in.streams {
		for i, o := range ops {
			fmt.Fprintf(&buf, "%d %d %v\n", s, o.key, o.put)
			if o.put {
				buf.WriteString(makeValue(in.keys[o.key], in.owner(int(o.key)), int64(i), valueSize))
			}
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed uint64) []byte {
			if w.rate > 0 {
				return encode(generate(w, seed, 500, 2, 1, 4000, 300), w.valueSize)
			}
			return encode(generate(w, seed, 500, 2, 2, 4000, 0), w.valueSize)
		}
		a, b, c := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

func TestWriterPartitionsAreDisjoint(t *testing.T) {
	for _, w := range workloads {
		if w.rate > 0 {
			continue
		}
		in := generate(w, 3, 1001, 2, 2, 20000, 0)
		writers := make(map[uint32]int)
		puts := 0
		for s, ops := range in.streams {
			for _, o := range ops {
				if !o.put {
					continue
				}
				puts++
				if in.owner(int(o.key)) != s {
					t.Fatalf("%s: stream %d writes %s, owned by writer %d", w.name, s, in.keys[o.key], in.owner(int(o.key)))
				}
				if prev, ok := writers[o.key]; ok && prev != s {
					t.Fatalf("%s: %s written by streams %d and %d", w.name, in.keys[o.key], prev, s)
				}
				writers[o.key] = s
			}
		}
		if puts == 0 {
			t.Errorf("%s: no writes generated", w.name)
		}
	}
}

func TestOpenLoopWritesToOneKeyAreSpaced(t *testing.T) {
	const gap = 300
	w, _ := findWorkload("open90-uniform-1k")
	in := generate(w, 5, 2000, 2, 1, 20000, gap)
	last := make(map[uint32]int)
	for i, o := range in.streams[0] {
		if !o.put {
			continue
		}
		if prev, ok := last[o.key]; ok && i-prev < gap {
			t.Fatalf("%s written at ops %d and %d, closer than %d", in.keys[o.key], prev, i, gap)
		}
		last[o.key] = i
	}
}

func TestZipfianFavoursTheHead(t *testing.T) {
	z := newZipfian(10000, 0.99)
	r := &rng{s: 42}
	counts := make([]int, 10000)
	for i := 0; i < 200000; i++ {
		counts[z.next(r)]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[100] || counts[100] <= counts[9000] {
		t.Errorf("not skewed toward low keys: %d %d %d %d", counts[0], counts[1], counts[100], counts[9000])
	}
	// With θ=0.99 over 10k items the hottest key draws about 10% of ops.
	if share := float64(counts[0]) / 200000; share < 0.08 || share > 0.12 {
		t.Errorf("hottest key share %.3f, want about 0.10", share)
	}
}
