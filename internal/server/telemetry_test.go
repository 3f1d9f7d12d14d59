package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- Prometheus exposition validation -------------------------------

// promSample is one parsed exposition sample.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm is a strict-enough parser for the text exposition format
// 0.0.4: it validates HELP/TYPE ordering, label syntax, and float
// values, returning all samples grouped under their family name.
func parseProm(t *testing.T, body string) (map[string]string, []promSample) {
	t.Helper()
	types := map[string]string{} // family -> type
	helped := map[string]bool{}
	var samples []promSample
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[0] == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			helped[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "untyped":
			default:
				t.Fatalf("line %d: unknown TYPE %q", ln+1, parts[1])
			}
			if !helped[parts[0]] {
				t.Fatalf("line %d: TYPE for %s before its HELP", ln+1, parts[0])
			}
			types[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}
		s := parsePromSample(t, ln+1, line)
		if family(s.name, types) == "" {
			t.Fatalf("line %d: sample %s has no preceding TYPE", ln+1, s.name)
		}
		samples = append(samples, s)
	}
	return types, samples
}

// family maps a sample name to its declared family (handling the
// _bucket/_sum/_count suffixes of histogram families).
func family(name string, types map[string]string) string {
	if _, ok := types[name]; ok {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return ""
}

func parsePromSample(t *testing.T, ln int, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		t.Fatalf("line %d: no value separator: %q", ln, line)
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.LastIndex(rest, "}")
		if end < 0 {
			t.Fatalf("line %d: unterminated label set: %q", ln, line)
		}
		for _, pair := range splitLabels(rest[1:end]) {
			eq := strings.Index(pair, "=")
			if eq < 0 {
				t.Fatalf("line %d: malformed label %q", ln, pair)
			}
			k, v := pair[:eq], pair[eq+1:]
			if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				t.Fatalf("line %d: unquoted label value %q", ln, v)
			}
			unq, err := strconv.Unquote(v)
			if err != nil {
				t.Fatalf("line %d: bad label escaping %q: %v", ln, v, err)
			}
			s.labels[k] = unq
		}
		rest = rest[end+1:]
	}
	valStr := strings.TrimSpace(rest)
	v, err := parsePromValue(valStr)
	if err != nil {
		t.Fatalf("line %d: bad value %q: %v", ln, valStr, err)
	}
	s.value = v
	return s
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(body string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	if start < len(body) {
		out = append(out, body[start:])
	}
	return out
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

func getProm(t *testing.T, base string) (string, map[string]string, []promSample) {
	t.Helper()
	resp, err := http.Get(base + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	types, samples := parseProm(t, string(b))
	return string(b), types, samples
}

// TestPromExposition drives real work through the server, then
// validates the full exposition: format, required families, histogram
// invariants, and agreement with the JSON snapshot.
func TestPromExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := strings.Repeat(`{"skip": {"a": [1, 2, 3]}, "v": 9}`+"\n", 40)
	if code, out := post(t, ts.URL+"/query?path="+url.QueryEscape("$.v"), "application/x-ndjson", body); code != 200 {
		t.Fatalf("query failed: %d %s", code, out)
	}

	text, types, samples := getProm(t, ts.URL)
	byName := map[string][]promSample{}
	for _, s := range samples {
		byName[s.name] = append(byName[s.name], s)
	}

	for _, fam := range []string{
		"jsonski_requests_total", "jsonski_request_errors_total",
		"jsonski_in_flight_requests", "jsonski_io_bytes_total",
		"jsonski_records_total", "jsonski_matches_total",
		"jsonski_engine_input_bytes_total", "jsonski_skipped_bytes_total",
		"jsonski_fast_forward_ratio", "jsonski_cache_events_total",
		"jsonski_worker_queue_depth", "jsonski_worker_queue_capacity",
		"jsonski_request_duration_seconds", "jsonski_record_duration_seconds",
		"jsonski_uptime_seconds", "jsonski_build_info",
	} {
		if _, ok := types[fam]; !ok {
			t.Errorf("missing family %s\n%s", fam, text)
		}
	}

	// All five paper groups must be present as labels.
	groups := map[string]bool{}
	for _, s := range byName["jsonski_skipped_bytes_total"] {
		groups[s.labels["group"]] = true
	}
	for _, g := range []string{"G1", "G2", "G3", "G4", "G5"} {
		if !groups[g] {
			t.Errorf("skipped_bytes_total missing group %s (have %v)", g, groups)
		}
	}

	// Histogram invariants for both latency families.
	for _, fam := range []string{"jsonski_request_duration_seconds", "jsonski_record_duration_seconds"} {
		validateHistogram(t, fam, byName)
	}

	// The exposition and JSON snapshot must agree (same single read path).
	snap := getMetrics(t, ts.URL)
	var recs float64
	for _, s := range byName["jsonski_records_total"] {
		recs = s.value
	}
	if int64(recs) != snap.Engine.Records && snap.Engine.Records != 40 {
		t.Errorf("prom records %v vs json %d", recs, snap.Engine.Records)
	}
}

// validateHistogram checks le ordering, cumulative monotonicity, and
// +Inf == _count per label set of one histogram family.
func validateHistogram(t *testing.T, fam string, byName map[string][]promSample) {
	t.Helper()
	buckets := byName[fam+"_bucket"]
	counts := byName[fam+"_count"]
	if len(buckets) == 0 || len(counts) == 0 {
		t.Errorf("%s: no bucket/count samples", fam)
		return
	}
	// Group buckets by their non-le label signature.
	sig := func(ls map[string]string) string {
		keys := make([]string, 0, len(ls))
		for k := range ls {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s=%s;", k, ls[k])
		}
		return sb.String()
	}
	series := map[string][]promSample{}
	for _, b := range buckets {
		series[sig(b.labels)] = append(series[sig(b.labels)], b)
	}
	countBySig := map[string]float64{}
	for _, c := range counts {
		countBySig[sig(c.labels)] = c.value
	}
	for sg, bs := range series {
		lastLe, lastCum := -1.0, -1.0
		sawInf := false
		for _, b := range bs {
			leStr := b.labels["le"]
			le, err := parsePromValue(leStr)
			if err != nil {
				t.Errorf("%s{%s}: bad le %q", fam, sg, leStr)
				continue
			}
			if le <= lastLe {
				t.Errorf("%s{%s}: le not increasing (%v after %v)", fam, sg, le, lastLe)
			}
			if b.value < lastCum {
				t.Errorf("%s{%s}: cumulative count decreased (%v after %v)", fam, sg, b.value, lastCum)
			}
			lastLe, lastCum = le, b.value
			if leStr == "+Inf" {
				sawInf = true
				if b.value != countBySig[sg] {
					t.Errorf("%s{%s}: +Inf bucket %v != count %v", fam, sg, b.value, countBySig[sg])
				}
			}
		}
		if !sawInf {
			t.Errorf("%s{%s}: missing +Inf bucket", fam, sg)
		}
	}
}

// TestPromCountersMonotonic scrapes twice around more work and checks
// that every counter-typed sample is non-decreasing.
func TestPromCountersMonotonic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	work := func() {
		post(t, ts.URL+"/query?path="+url.QueryEscape("$.v"), "application/x-ndjson",
			strings.Repeat(`{"v": 1}`+"\n", 10))
	}
	work()
	_, types1, samples1 := getProm(t, ts.URL)
	work()
	_, _, samples2 := getProm(t, ts.URL)
	key := func(s promSample) string {
		keys := make([]string, 0, len(s.labels))
		for k, v := range s.labels {
			keys = append(keys, k+"="+v)
		}
		sort.Strings(keys)
		return s.name + "{" + strings.Join(keys, ",") + "}"
	}
	first := map[string]float64{}
	for _, s := range samples1 {
		first[key(s)] = s.value
	}
	for _, s := range samples2 {
		fam := family(s.name, types1)
		if types1[fam] != "counter" && types1[fam] != "histogram" {
			continue
		}
		if s.name == fam+"_sum" {
			continue // float sums can stay equal; only counts are integral
		}
		if prev, ok := first[key(s)]; ok && s.value < prev {
			t.Errorf("%s went backwards: %v -> %v", key(s), prev, s.value)
		}
	}
}

// --- readiness -------------------------------------------------------

func TestReadyz(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh server readyz = %d", resp.StatusCode)
	}
	// Saturate the pool: one task occupies the single worker, one more
	// fills the queue.
	block := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		if err := s.pool.submit(context.Background(), func() { defer wg.Done(); <-block }); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the worker has dequeued the first task and the second
	// sits in the queue.
	deadline := time.Now().Add(2 * time.Second)
	for s.pool.queueDepth() < s.pool.queueCap() {
		if time.Now().After(deadline) {
			t.Fatalf("queue never saturated (depth %d, cap %d)", s.pool.queueDepth(), s.pool.queueCap())
		}
		time.Sleep(time.Millisecond)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated readyz = %d, want 503", resp.StatusCode)
	}
	close(block)
	wg.Wait()

	// Healthz stays 200 throughout; readyz flips permanently on
	// BeginShutdown.
	s.BeginShutdown()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown readyz = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200 even during shutdown", resp.StatusCode)
	}
}

// --- explain trailer -------------------------------------------------

// explainTrailerLine is the decoded {"explain": ...} trailer.
type explainTrailerLine struct {
	Explain *struct {
		Events []struct {
			Record int    `json:"record"`
			Group  string `json:"group"`
			Func   string `json:"func"`
			Start  int    `json:"start"`
			End    int    `json:"end"`
			Bytes  int    `json:"bytes"`
		} `json:"events"`
		Dropped int `json:"dropped"`
	} `json:"explain"`
}

func TestQueryExplainNDJSONTrailer(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := `{"skip": {"a": 1}, "v": 10}` + "\n" + `{"skip": {"b": 2}, "v": 20}` + "\n"
	code, out := post(t, ts.URL+"/query?path="+url.QueryEscape("$.v")+"&explain=1",
		"application/x-ndjson", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 2 match lines + trailer, got %d: %q", len(lines), out)
	}
	var trailer explainTrailerLine
	if err := json.Unmarshal([]byte(lines[2]), &trailer); err != nil || trailer.Explain == nil {
		t.Fatalf("last line is not an explain trailer: %q (%v)", lines[2], err)
	}
	if len(trailer.Explain.Events) == 0 {
		t.Fatal("trailer has no events")
	}
	recs := map[int]bool{}
	for _, e := range trailer.Explain.Events {
		recs[e.Record] = true
		if e.Bytes != e.End-e.Start {
			t.Fatalf("event bytes %d != end-start %d", e.Bytes, e.End-e.Start)
		}
		if e.Group == "" || e.Func == "" {
			t.Fatalf("event missing group/func: %+v", e)
		}
	}
	if !recs[0] || !recs[1] {
		t.Fatalf("events should cover both records, got %v", recs)
	}
}

func TestQueryExplainSingleDocument(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, out := post(t, ts.URL+"/query?path="+url.QueryEscape("$.v")+"&explain=1",
		"application/json", `{"skip": [1, 2, 3], "v": 5}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != `{"record":0,"value":5}` {
		t.Fatalf("match line = %q", lines[0])
	}
	var trailer explainTrailerLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil || trailer.Explain == nil {
		t.Fatalf("no explain trailer: %q", lines[len(lines)-1])
	}
}

func TestMultiExplainRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, out := post(t, ts.URL+"/multi?path="+url.QueryEscape("$.v")+"&explain=1",
		"application/x-ndjson", `{"v": 1}`+"\n")
	if code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", code, out)
	}
	if !strings.Contains(out, "explain") {
		t.Fatalf("error should mention explain: %s", out)
	}
}

// TestExplainTrailerBounded posts enough adversarial records that the
// global event cap engages and the trailer reports drops.
func TestExplainTrailerBounded(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	// Each record has many skippable attributes -> many events.
	var rec strings.Builder
	rec.WriteString(`{`)
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&rec, `"k%d": %d, `, i, i)
	}
	rec.WriteString(`"v": 1}`)
	body := strings.Repeat(rec.String()+"\n", 40)
	code, out := post(t, ts.URL+"/query?path="+url.QueryEscape("$.v")+"&explain=1",
		"application/x-ndjson", body)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var trailer explainTrailerLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil || trailer.Explain == nil {
		t.Fatalf("no trailer: %q", lines[len(lines)-1])
	}
	if n := len(trailer.Explain.Events); n > maxExplainEvents {
		t.Fatalf("trailer has %d events, cap is %d", n, maxExplainEvents)
	}
}

// TestExplainTrailerPerRecordCap pins the per-record explain cap: a
// record with more movements than perRecordExplainEvents contributes
// exactly that many events and reports the rest as dropped, and the
// next record still gets its own.
func TestExplainTrailerPerRecordCap(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	// Every attribute but v has an object value: one skip each.
	var big strings.Builder
	big.WriteString(`{`)
	for i := 0; i < 2*perRecordExplainEvents; i++ {
		fmt.Fprintf(&big, `"k%d": {"x": %d}, `, i, i)
	}
	big.WriteString(`"v": 1}`)
	body := big.String() + "\n" + `{"a": {"b": 1}, "v": 2}` + "\n"
	code, out := post(t, ts.URL+"/query?path="+url.QueryEscape("$.v")+"&explain=1",
		"application/x-ndjson", body)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var trailer explainTrailerLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil || trailer.Explain == nil {
		t.Fatalf("no trailer: %q", lines[len(lines)-1])
	}
	perRecord := map[int]int{}
	for _, e := range trailer.Explain.Events {
		perRecord[e.Record]++
	}
	if perRecord[0] != perRecordExplainEvents || perRecord[1] == 0 {
		t.Fatalf("events per record %v, want %d for record 0 and some for record 1",
			perRecord, perRecordExplainEvents)
	}
	if trailer.Explain.Dropped < perRecordExplainEvents {
		t.Fatalf("dropped %d, want at least %d", trailer.Explain.Dropped, perRecordExplainEvents)
	}
}

// --- concurrency -----------------------------------------------------

// TestConcurrentQueryAndScrape hammers /query, /metrics, and
// /metrics/prom concurrently; run under -race this is the torn-pair
// and lock-free-histogram safety net.
func TestConcurrentQueryAndScrape(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	body := strings.Repeat(`{"skip": {"a": [1, 2]}, "v": 3}`+"\n", 20)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/query?path="+url.QueryEscape("$.v"),
					"application/x-ndjson", strings.NewReader(body))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	scrape := func(path string, check func(*testing.T, string)) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				continue
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			check(t, string(b))
		}
	}
	wg.Add(2)
	go scrape("/metrics", func(t *testing.T, body string) {
		var snap metricsSnapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Errorf("bad /metrics JSON: %v", err)
			return
		}
		// The consistency invariant: ratios derived from one snapshot
		// can undershoot but never exceed 1.
		if snap.Engine.FastForwardRatio > 1 {
			t.Errorf("fast-forward ratio %v > 1 (torn snapshot)", snap.Engine.FastForwardRatio)
		}
	})
	go scrape("/metrics/prom", func(t *testing.T, body string) {
		if !strings.Contains(body, "jsonski_records_total") {
			t.Error("prom scrape missing records_total")
		}
	})
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// --- slow-query log --------------------------------------------------

func TestAccessLogAndSlowQuery(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	_, ts := newTestServer(t, Config{Workers: 1, Logger: logger, SlowQuery: time.Nanosecond})
	post(t, ts.URL+"/query?path="+url.QueryEscape("$.v"), "application/x-ndjson", `{"v": 1}`+"\n")
	out := buf.String()
	if !strings.Contains(out, "slow query") {
		t.Fatalf("1ns threshold should mark every query slow; log:\n%s", out)
	}
	if !strings.Contains(out, "path=/query") {
		t.Fatalf("log missing request path:\n%s", out)
	}
}

type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}
