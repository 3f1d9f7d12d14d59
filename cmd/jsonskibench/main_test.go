package main

import (
	"encoding/json"
	"os"
	"path/filepath"
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
// keep the tables wired to working code. The store, filter, trace and
// ondemand experiments have their own tests below.
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

// TestStoreExperiment smoke-runs the persistent-store experiment at a
// tiny size and checks the machine-readable report it emits (the
// BENCH_6.json trajectory) is well-formed and complete.
func TestStoreExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	defer func(d time.Duration) { benchTime = d }(benchTime)
	benchTime = time.Millisecond
	out := filepath.Join(t.TempDir(), "BENCH_6.json")
	h := &harness{size: 64 << 10, workers: 2, seed: 7}
	h.store(out)

	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep storeReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Bench != "store" || rep.Schema != 1 {
		t.Fatalf("report header: %+v", rep)
	}
	if len(rep.Queries) == 0 {
		t.Fatal("report has no query rows")
	}
	for _, r := range rep.Queries {
		if r.BuildNS <= 0 || r.LoadNS <= 0 || r.ICacheHitNS <= 0 || r.CatalogHitNS <= 0 {
			t.Fatalf("query row %s has zero timings: %+v", r.ID, r)
		}
		if r.FileBytes <= 0 || r.DocBytes <= 0 {
			t.Fatalf("query row %s has zero sizes: %+v", r.ID, r)
		}
	}
	if rep.Corpus.Records == 0 || rep.Corpus.WindowNS <= 0 {
		t.Fatalf("corpus section: %+v", rep.Corpus)
	}
	if rep.Summary.ICacheHitTotalNS <= 0 || rep.Summary.CorpusColdSpeedup <= 0 {
		t.Fatalf("summary: %+v", rep.Summary)
	}
}

// TestFilterExperiment smoke-runs the filter-selectivity experiment at
// a tiny size and checks the machine-readable report (the BENCH_7.json
// trajectory) is well-formed: one row per selectivity point, both probe
// plans agreeing on match counts (asserted inside the experiment), and
// monotone matches as the threshold loosens.
func TestFilterExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	defer func(d time.Duration) { benchTime = d }(benchTime)
	benchTime = time.Millisecond
	out := filepath.Join(t.TempDir(), "BENCH_7.json")
	h := &harness{size: 256 << 10, workers: 2, seed: 7}
	h.filter(out)

	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep filterReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Bench != "filter" || rep.Schema != 1 || rep.Dataset != "wm" {
		t.Fatalf("report header: %+v", rep)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(rep.Rows))
	}
	prev := int64(-1)
	for _, r := range rep.Rows {
		if r.SkipMBs <= 0 || r.FullMBs <= 0 || r.DomMBs <= 0 {
			t.Fatalf("row thr=%d has zero throughput: %+v", r.Threshold, r)
		}
		if r.SkipFFRatio <= 0 {
			t.Fatalf("row thr=%d has zero FF ratio: %+v", r.Threshold, r)
		}
		if r.Matches < prev {
			t.Fatalf("matches not monotone in threshold: %+v", rep.Rows)
		}
		prev = r.Matches
	}
	if rep.Rows[0].Matches != 0 {
		t.Fatalf("threshold 0 should match nothing: %+v", rep.Rows[0])
	}
	if rep.Rows[len(rep.Rows)-1].Matches == 0 {
		t.Fatalf("threshold 800 should match every item: %+v", rep.Rows)
	}
}

// TestTraceExperiment smoke-runs the tracing-overhead experiment at a
// tiny size and checks the machine-readable report (the BENCH_8.json
// trajectory): four modes, span counters consistent with the sampling
// ratios, and the charge-group byte accounting closed.
func TestTraceExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	defer func(d time.Duration) { benchTime = d }(benchTime)
	benchTime = time.Millisecond
	out := filepath.Join(t.TempDir(), "BENCH_8.json")
	h := &harness{size: 256 << 10, workers: 2, seed: 7}
	h.trace(out)

	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep traceReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Bench != "trace" || rep.Schema != 1 || rep.Dataset != "tt" {
		t.Fatalf("report header: %+v", rep)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("%d rows, want 4 (baseline, off, sampled, always)", len(rep.Rows))
	}
	byMode := map[string]traceRow{}
	for _, r := range rep.Rows {
		if r.NsPerRecord <= 0 || r.MBs <= 0 {
			t.Fatalf("row %s has zero timing: %+v", r.Mode, r)
		}
		byMode[r.Mode] = r
	}
	for _, m := range []string{"baseline", "off", "sampled", "always"} {
		if _, ok := byMode[m]; !ok {
			t.Fatalf("missing mode %q: %+v", m, rep.Rows)
		}
	}
	if r := byMode["off"]; r.SpansStarted != 0 {
		t.Fatalf("off mode started spans: %+v", r)
	}
	if r := byMode["always"]; r.SpansStarted == 0 || r.SpansSampled != r.SpansStarted {
		t.Fatalf("always mode should sample every span: %+v", r)
	}
	if r := byMode["sampled"]; r.SpansStarted == 0 || r.SpansSampled >= r.SpansStarted {
		t.Fatalf("sampled(0.1) mode should sample a strict subset: %+v", r)
	}
	if !rep.Summary.BytesAccounted {
		t.Fatalf("byte accounting did not close: %+v", rep.Accounting)
	}
	if rep.Accounting.InputBytes <= 0 || rep.Accounting.SkipRatio <= 0 {
		t.Fatalf("accounting: %+v", rep.Accounting)
	}
}

// TestOndemandExperiment smoke-runs the lazy-navigation experiment and
// checks the BENCH_9.json trajectory it writes: every grid row timed,
// the navigation path's byte accounting closed, and lazy lookup ahead
// of the full DOM decode.
func TestOndemandExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	defer func(d time.Duration) { benchTime = d }(benchTime)
	benchTime = time.Millisecond
	out := filepath.Join(t.TempDir(), "BENCH_9.json")
	h := &harness{size: 64 << 10, workers: 2, seed: 7}
	h.ondemand(out)

	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep ondemandReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Bench != "ondemand" || rep.Schema != 1 {
		t.Fatalf("report header: %+v", rep)
	}
	if len(rep.Rows) != 9 {
		t.Fatalf("want 9 grid rows, got %d", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.LazyNs <= 0 || r.LazyIndexedNs <= 0 || r.CompiledNs <= 0 || r.DOMNs <= 0 {
			t.Fatalf("row %+v has zero timings", r)
		}
		if !r.BytesAccounted {
			t.Fatalf("row depth=%d fanout=%d: navigation bytes not accounted", r.Depth, r.Fanout)
		}
	}
	if !rep.Summary.AllAccounted {
		t.Fatal("summary reports unaccounted bytes")
	}
}
