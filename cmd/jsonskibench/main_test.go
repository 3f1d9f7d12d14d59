package main

import (
	"testing"
	"time"
)

func TestParseSize(t *testing.T) {
	if n, err := parseSize("4MB"); err != nil || n != 4<<20 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if _, err := parseSize("junk"); err == nil {
		t.Fatal("expected error")
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[int]string{
		500:     "500B",
		2 << 10: "2.0KB",
		3 << 20: "3.0MB",
		1 << 30: "1.0GB",
	}
	for in, want := range cases {
		if got := fmtBytes(in); got != want {
			t.Errorf("fmtBytes(%d) = %q want %q", in, got, want)
		}
	}
}

// TestExperimentsSmoke runs every paper experiment at a tiny size to
// keep the tables wired to working code.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	defer func(d time.Duration) { benchTime = d }(benchTime)
	benchTime = time.Millisecond
	h := &harness{size: 96 << 10, workers: 2, seed: 7}
	h.table4()
	h.fig10()
	h.fig11()
	h.fig12()
	h.fig13()
	h.fig14()
	h.table6()
	h.ablation()
	h.sharedindex()
}
