package main

import (
	"strings"
	"testing"
)

func TestCheckerFlagsWrongValues(t *testing.T) {
	const size = 64
	w, _ := findWorkload("read95-zipf")
	in := generate(w, 1, 10, 2, 2, 100, 0)
	c := newChecker(in, size)
	// Key 4 (writer 0) has been written up to seq 3; seq 2 was acknowledged.
	for i := 0; i < 3; i++ {
		c.nextValue(4)
	}
	c.ack(4, 2)

	good := makeValue("k0000004", 0, 2, size)
	corrupt := []byte(good)
	corrupt[size-5] ^= 0x20
	cases := []struct {
		name, value string
		found       bool
		want        string // "" when the read is right
	}{
		{"acknowledged", good, true, ""},
		{"newer, in flight", makeValue("k0000004", 0, 3, size), true, ""},
		{"foreign key", makeValue("k0000006", 0, 2, size), true, "foreign key"},
		{"other writer", makeValue("k0000004", 1, 2, size), true, "only writer 0"},
		{"regressed", makeValue("k0000004", 0, 1, size), true, "regressed"},
		{"never issued", makeValue("k0000004", 0, 4, size), true, "never issued"},
		{"corrupted pad", string(corrupt), true, "corrupt pad"},
		{"truncated", good[:size-1], true, "bytes"},
		{"garbage", strings.Repeat("x", size), true, "not key|writer|seq|pad"},
		{"missing", "", false, "not found"},
	}
	for _, tc := range cases {
		err := c.verify(4, tc.value, tc.found, c.acked[4].Load(), c.issued[4].Load())
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: flagged a right value: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}

	// checkRead and checkFinal count what they flag.
	if c.checkFinal(4, makeValue("k0000004", 0, 1, size), true) {
		t.Error("checkFinal accepted a regressed value")
	}
	if !c.checkRead(4, makeValue("k0000004", 0, 1, size), true, 1) {
		t.Error("checkRead rejected a value acknowledged when the read was sent")
	}
	if got := c.wrong.Load(); got != 1 {
		t.Errorf("wrong = %d, want 1", got)
	}
	if !strings.Contains(c.firstBad, "regressed") {
		t.Errorf("firstBad = %q", c.firstBad)
	}
}
