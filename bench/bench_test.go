package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// testBin holds jsonski and jsonskid built once for the whole package.
var testBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "jsonski-bench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	testBin = dir
	if err := buildBinaries(context.Background(), "..", dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tiny inputs keep every workload's reference lookups in range while
// a whole smoke run takes about a second per workload and mode.
var tiny = sizes{
	LargeBytes:    256 << 10,
	RecordsBytes:  128 << 10,
	BodyRecords:   16,
	BodiesPerSet:  2,
	DocBytes:      64 << 10,
	SampleRecords: 32,
}

type tlog struct{ t *testing.T }

func (l tlog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

func testRunner(t *testing.T, name string, trace bool) (*runner, []*op) {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{
		repo: "..", bin: testBin, work: t.TempDir(), seed: 7, seconds: 0.8,
		trace: trace, sizes: tiny, log: tlog{t},
	}
	ops, err := w.ops(cfg.sizes, cfg.seed, cfg.work)
	if err != nil {
		t.Fatal(err)
	}
	return newRunner(cfg, w), ops
}

// TestSmoke runs every workload in both modes at tiny sizes and checks
// the output format: every declared metric on its own line with its
// unit, then the JSON result line; no failed operation; the byte
// accounting identity held on every lazy evaluation.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				r, ops := testRunner(t, w.name, trace)
				if err := r.measure(context.Background(), ops); err != nil {
					t.Fatal(err)
				}
				for name := range r.metrics {
					if !declared(r.declared(), name) {
						t.Errorf("emitted undeclared metric %s", name)
					}
				}
				res, err := r.result()
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || !res.Correct || r.broken.Load() {
					t.Fatalf("failed %d of %d, correct %v, invariant broken %v", res.Failed, res.Attempted, res.Correct, r.broken.Load())
				}
				var out bytes.Buffer
				if err := writeResult(&out, w.name, res); err != nil {
					t.Fatal(err)
				}
				checkOutput(t, w.name, r.declared(), out.String())
			})
		}
	}
}

func declared(ms []metric, name string) bool {
	for _, m := range ms {
		if m.name == name {
			return true
		}
	}
	return false
}

// checkOutput parses a run's standard output the way a harness would.
func checkOutput(t *testing.T, workload string, want []metric, out string) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(last) != 4 {
		t.Errorf("result line has %d keys, want 4", len(last))
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	printed := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) != 4 || f[0] != workload {
			t.Errorf("malformed metric line %q", l)
			continue
		}
		printed[f[1]] = f[3]
	}
	for _, m := range want {
		if printed[m.name] != m.unit {
			t.Errorf("%s: printed with unit %q, want %q", m.name, printed[m.name], m.unit)
		}
		if v, ok := metrics[m.name]; !ok || v.Value == nil || v.Unit != m.unit {
			t.Errorf("%s missing from the result line or has the wrong unit", m.name)
		}
	}
	if len(metrics) != len(want) {
		t.Errorf("result line has %d metrics, want %d", len(metrics), len(want))
	}
}

// TestCheckerCatchesTampering proves the output checker compares
// answers: with one expected match dropped from a /query, every /doc
// body replaced, or one CLI output shortened, the run must report
// failures. With every /doc wrong, half the closed loop fails, so the
// latency quantiles land on failed requests; the result line must
// still be well-formed JSON carrying every metric.
func TestCheckerCatchesTampering(t *testing.T) {
	cases := []struct {
		workload string
		kind     opKind
		all      bool // tamper every op of kind, not just the first
		tamper   func(cli, http []byte) ([]byte, []byte)
	}{
		{"http-ndjson", opQuery, false, func(cli, http []byte) ([]byte, []byte) { return cli, dropLastLine(http) }},
		{"http-doc-hot", opDoc, true, func(cli, _ []byte) ([]byte, []byte) { return cli, []byte(`"tampered"` + "\n") }},
		{"large-scan", opQuery, false, func(cli, http []byte) ([]byte, []byte) { return dropLastLine(cli), http }},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			r, ops := testRunner(t, c.workload, false)
			r.cfg.log = nil
			tampered := false
			for _, o := range ops {
				if o.kind != c.kind || o.matches == 0 {
					continue
				}
				cli, http, err := o.render()
				if err != nil {
					t.Fatal(err)
				}
				o.expect(c.tamper(cli, http))
				tampered = true
				if !c.all {
					break
				}
			}
			if !tampered {
				t.Fatal("no op to tamper with")
			}
			if err := r.measure(context.Background(), ops); err != nil {
				t.Fatal(err)
			}
			res, err := r.result()
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed == 0 || res.Correct {
				t.Fatalf("tampered reference went unnoticed: failed %d of %d, correct %v", res.Failed, res.Attempted, res.Correct)
			}
			var out bytes.Buffer
			if err := writeResult(&out, c.workload, res); err != nil {
				t.Fatal(err)
			}
			checkOutput(t, c.workload, r.declared(), out.String())
		})
	}
}

func dropLastLine(b []byte) []byte {
	b = bytes.TrimSuffix(b, []byte("\n"))
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[:i+1]
	}
	return nil
}

// benchmarkJSON mirrors the layout BENCHMARK.json must have exactly;
// decoding rejects any other key.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesEmitter keeps BENCHMARK.json and the
// program's own tables in step: the same workloads, and the same
// metric names, units, directions and bounds.
func TestBenchmarkJSONMatchesEmitter(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q (or its why differs)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(bj.EndToEnd) != len(endToEnd) || len(bj.EndToEnd) > 16 {
		t.Fatalf("end_to_end: %d metrics in BENCHMARK.json, %d in the program (limit 16)", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		checkName(m.Name)
		p := endToEnd[i]
		if m.Name != p.name || m.Unit != p.unit || m.Better != p.better || m.Bound != p.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, program %+v", i, m, p)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bad unit or bound", m.Name)
		}
	}
	if !seen["setup_s"] {
		t.Error("end_to_end lacks setup_s")
	}

	if len(bj.PerLayer) != len(perLayer) || len(bj.PerLayer) > 128 {
		t.Fatalf("per_layer: %d metrics in BENCHMARK.json, %d in the program (limit 128)", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		checkName(m.Name)
		p := perLayer[i]
		if m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, program %+v", i, m, p)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per_layer %s: bad unit or direction", m.Name)
		}
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", bj.RunSeconds)
	}
}

// TestReadmeDefinesEveryMetric keeps the metric dictionary complete.
func TestReadmeDefinesEveryMetric(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	for _, m := range allMetrics() {
		if !strings.Contains(text, "`"+m.name+"`") {
			t.Errorf("README.md does not define %s", m.name)
		}
	}
	for _, w := range workloads {
		if !strings.Contains(text, "`"+w.name+"`") {
			t.Errorf("README.md does not describe workload %s", w.name)
		}
	}
}
