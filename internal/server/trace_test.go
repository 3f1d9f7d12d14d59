package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"jsonski/internal/telemetry"
	"jsonski/internal/traceexport"
)

// otlpWire mirrors the slice of the OTLP/JSON export body these tests
// inspect (the collector side of internal/telemetry's encoder).
type otlpWire struct {
	ResourceSpans []struct {
		ScopeSpans []struct {
			Spans []wireSpan `json:"spans"`
		} `json:"scopeSpans"`
	} `json:"resourceSpans"`
}

// wireSpan is one exported span.
type wireSpan struct {
	TraceID      string     `json:"traceId"`
	SpanID       string     `json:"spanId"`
	ParentSpanID string     `json:"parentSpanId"`
	Name         string     `json:"name"`
	Attributes   []wireAttr `json:"attributes"`
	Events       []struct {
		Name       string     `json:"name"`
		Attributes []wireAttr `json:"attributes"`
	} `json:"events"`
}

// wireAttr is one span or event attribute.
type wireAttr struct {
	Key   string `json:"key"`
	Value struct {
		StringValue *string  `json:"stringValue"`
		IntValue    *string  `json:"intValue"`
		DoubleValue *float64 `json:"doubleValue"`
		BoolValue   *bool    `json:"boolValue"`
	} `json:"value"`
}

// collector is a test OTLP/HTTP collector accumulating every span
// POSTed to /v1/traces.
type collector struct {
	mu    sync.Mutex
	spans []wireSpan
}

func (c *collector) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/traces" {
			http.NotFound(w, r)
			return
		}
		var body otlpWire
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		c.mu.Lock()
		for _, rs := range body.ResourceSpans {
			for _, ss := range rs.ScopeSpans {
				c.spans = append(c.spans, ss.Spans...)
			}
		}
		c.mu.Unlock()
		w.WriteHeader(http.StatusOK)
	})
}

func (c *collector) snapshot() []wireSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]wireSpan(nil), c.spans...)
}

// TestTraceEndToEndOTLP drives the full tracing pipeline: an inbound
// W3C traceparent enters /query, the response carries the propagated
// context back, and after the exporter drains, the collector holds a
// root span on the inbound trace ID with index-lookup and engine-run
// children whose attributes carry the paper's per-group fast-forward
// cost accounting.
func TestTraceEndToEndOTLP(t *testing.T) {
	col := &collector{}
	cts := httptest.NewServer(col.handler())
	defer cts.Close()

	tracer := telemetry.NewTracer(telemetry.TracerConfig{SampleRatio: 1})
	exporter, err := traceexport.New(tracer, traceexport.Config{
		Endpoint: cts.URL,
		Service:  "jsonskid-test",
		Interval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 2, Tracer: tracer})

	const inboundTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	body := `{"skip": {"deep": [1, 2, 3], "pad": "` + strings.Repeat("x", 256) + `"}, "a": {"b": 7}}`
	req, err := http.NewRequest(http.MethodPost,
		ts.URL+"/query?path="+url.QueryEscape("$.a.b"), strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+inboundTrace+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if got := strings.TrimSpace(string(out)); got != `{"record":0,"value":7}` {
		t.Fatalf("body = %q", got)
	}
	tp := resp.Header.Get("traceparent")
	if !strings.HasPrefix(tp, "00-"+inboundTrace+"-") {
		t.Fatalf("response traceparent %q does not continue the inbound trace", tp)
	}

	// Close forces the final ring drain, so every span of the request is
	// at the collector afterwards.
	if err := exporter.Close(); err != nil {
		t.Fatal(err)
	}
	spans := col.snapshot()
	byName := map[string]wireSpan{}
	for _, sp := range spans {
		if sp.TraceID != inboundTrace {
			t.Fatalf("span %q exported under trace %s, want %s", sp.Name, sp.TraceID, inboundTrace)
		}
		byName[sp.Name] = sp
	}
	root, ok := byName["POST /query"]
	if !ok {
		t.Fatalf("no root span in export: %+v", spans)
	}
	if root.ParentSpanID != "00f067aa0ba902b7" {
		t.Fatalf("root parent = %q, want the inbound span ID", root.ParentSpanID)
	}
	for _, name := range []string{"index.lookup", "engine.run", "sink.flush"} {
		child, ok := byName[name]
		if !ok {
			t.Fatalf("no %s child in export: %+v", name, spans)
		}
		if child.ParentSpanID != root.SpanID {
			t.Fatalf("%s parent = %q, want root %q", name, child.ParentSpanID, root.SpanID)
		}
	}
	attrs := map[string]string{}
	for _, a := range byName["engine.run"].Attributes {
		if a.Value.IntValue != nil {
			attrs[a.Key] = *a.Value.IntValue
		}
	}
	if attrs["jsonski.input.bytes"] == "" || attrs["jsonski.input.bytes"] == "0" {
		t.Fatalf("engine.run lacks input bytes: %v", attrs)
	}
	if attrs["jsonski.scanned.bytes"] == "" {
		t.Fatalf("engine.run lacks scanned bytes: %v", attrs)
	}
	ffTotal := 0
	for g := 1; g <= 5; g++ {
		v, ok := attrs["jsonski.ff.bytes.G"+string(rune('0'+g))]
		if !ok {
			t.Fatalf("engine.run lacks ff bytes for G%d: %v", g, attrs)
		}
		var n int
		for _, c := range v {
			n = n*10 + int(c-'0')
		}
		ffTotal += n
	}
	if ffTotal == 0 {
		t.Fatalf("no bytes fast-forwarded on a skippable document: %v", attrs)
	}

	// The same accounting reaches both metric expositions.
	snap := getMetrics(t, ts.URL)
	if !snap.Trace.Enabled || snap.Trace.SpansStarted == 0 || snap.Trace.SpansExported == 0 {
		t.Fatalf("trace metrics: %+v", snap.Trace)
	}
	if snap.Engine.ScannedBytes <= 0 || snap.Engine.SkipRatio <= 0 {
		t.Fatalf("engine accounting: %+v", snap.Engine)
	}
	promResp, err := http.Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(promResp.Body)
	promResp.Body.Close()
	for _, want := range []string{
		`jsonski_ff_bytes_total{group="G1"}`,
		"jsonski_scanned_bytes_total",
		"jsonski_skip_ratio",
		"jsonski_trace_enabled 1",
		`jsonski_trace_spans_total{outcome="started"}`,
		`jsonski_build_info{`,
	} {
		if !strings.Contains(string(prom), want) {
			t.Fatalf("prom exposition missing %q", want)
		}
	}
}

// TestTraceHammerStalledExporter hammers a fully-sampled server with
// concurrent traced requests while the collector never answers, then
// begins shutdown mid-flight. The request path must never block on the
// stalled exporter (drop-on-full ring), every request must finish, the
// drop counter must register the overflow, and exporter.Close must
// return promptly because each final POST is bounded by its timeout.
func TestTraceHammerStalledExporter(t *testing.T) {
	stall := make(chan struct{})
	cts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall // hold every POST until the test ends
	}))
	defer func() { close(stall); cts.Close() }()

	tracer := telemetry.NewTracer(telemetry.TracerConfig{
		SampleRatio: 1,
		RingSize:    16, // tiny ring so the stall overflows it fast
	})
	exporter, err := traceexport.New(tracer, traceexport.Config{
		Endpoint: cts.URL,
		Interval: time.Millisecond,
		Timeout:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 4, Tracer: tracer})

	const (
		goroutines = 8
		perG       = 25
	)
	var in strings.Builder
	for i := 0; i < 20; i++ {
		in.WriteString(`{"skip": [1, 2, 3], "v": 1}` + "\n")
	}
	queryURL := ts.URL + "/query?path=" + url.QueryEscape("$.v")
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if g == goroutines/2 && i == perG/2 {
					s.BeginShutdown() // mid-flight: in-flight requests unaffected
				}
				resp, err := http.Post(queryURL, "application/x-ndjson", strings.NewReader(in.String()))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Errorf("goroutine %d: draining: %v", g, err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d: status %d", g, resp.StatusCode)
				}
			}
		}(g)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("traced requests blocked on the stalled exporter")
	}

	closed := make(chan error, 1)
	go func() { closed <- exporter.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("exporter.Close hung on the stalled collector")
	}

	st := tracer.Stats()
	if st.Started != goroutines*perG {
		t.Fatalf("started %d spans, want %d roots", st.Started, goroutines*perG)
	}
	if st.DroppedSpans == 0 {
		t.Fatalf("stalled exporter produced no drops: %+v", st)
	}
	if st.ExportErrors == 0 {
		t.Fatalf("stalled collector produced no export errors: %+v", st)
	}
}

// TestEveryTracedRequestExportsItsSpanTree runs each kind of traced
// request at 100% sampling through a file sink and pins the span tree
// it exports: one trace per request, its root's name, and each child's
// name and count, every child parented on the root. A span that never
// ends never reaches the sink, so this is the runtime check that every
// span a request starts also ends. It also pins what each engine.run
// span carries: the cost attributes always, and movement events only on
// an explain request, the same movements as the response's trailer.
func TestEveryTracedRequestExportsItsSpanTree(t *testing.T) {
	const rec = `{"a": {"b": 1}, "pad": [1, 2, 3]}`
	ndjson := func(recs ...string) string { return strings.Join(recs, "\n") + "\n" }
	doc := `{"a": {"b": [1, 2, {"c": 3}]}, "pad": "` + strings.Repeat("x", 200) + `"}`
	query := func(endpoint, key string, vals ...string) string {
		q := url.Values{key: vals}
		return endpoint + "?" + q.Encode()
	}
	cases := []struct {
		name        string
		noIndex     bool // IndexCacheBytes < 0: no index tier at all
		target      string
		contentType string
		body        string
		status      int
		root        string
		children    map[string]int
		tier        string // index.lookup's jsonski.index.tier, if it has one
		events      bool   // engine.run spans carry the trailer's movements
	}{
		{"ndjson query", false, query("/query", "path", "$.a.b"), "", ndjson(rec, rec, rec),
			http.StatusOK, "POST /query", map[string]int{"engine.run": 3}, "", false},
		{"explain", false, query("/query", "path", "$.a.b") + "&explain=1", "", ndjson(rec, rec),
			http.StatusOK, "POST /query", map[string]int{"engine.run": 2}, "", true},
		{"explain single document", false, query("/query", "path", "$.a.b") + "&explain=1", "application/json", doc,
			http.StatusOK, "POST /query", map[string]int{"engine.run": 1, "sink.flush": 1}, "", true},
		{"single document, index hit", false, query("/query", "path", "$.a.b[2]"), "application/json", doc,
			http.StatusOK, "POST /query", map[string]int{"index.lookup": 1, "engine.run": 1, "sink.flush": 1}, "cache", false},
		{"single document, no index", true, query("/query", "path", "$.a.b[2]"), "application/json", doc,
			http.StatusOK, "POST /query", map[string]int{"index.lookup": 1, "engine.run": 1, "sink.flush": 1}, "none", false},
		{"multi ndjson", false, query("/multi", "path", "$.a", "$.pad"), "", ndjson(rec, rec),
			http.StatusOK, "POST /multi", map[string]int{"engine.run": 2}, "", false},
		{"multi single document", false, query("/multi", "path", "$.a", "$.pad"), "application/json", doc,
			http.StatusOK, "POST /multi", map[string]int{"index.lookup": 1, "engine.run": 1, "sink.flush": 1}, "cache", false},
		{"doc hit", false, query("/doc", "get", "a.b[2].c"), "", doc,
			http.StatusOK, "POST /doc", map[string]int{"index.lookup": 1, "engine.run": 1}, "cache", false},
		{"doc 404", false, query("/doc", "get", "a.zz"), "", doc,
			http.StatusNotFound, "POST /doc", map[string]int{"index.lookup": 1, "engine.run": 1}, "cache", false},
		{"malformed record", false, query("/query", "path", "$.a.b"), "", ndjson(rec, `{"a": {`, rec),
			http.StatusOK, "POST /query", map[string]int{"engine.run": 3}, "", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tracer := telemetry.NewTracer(telemetry.TracerConfig{SampleRatio: 1})
			file := filepath.Join(t.TempDir(), "spans.ndjson")
			exporter, err := traceexport.New(tracer, traceexport.Config{FilePath: file, Interval: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Workers: 2, Tracer: tracer}
			if c.noIndex {
				cfg.IndexCacheBytes = -1
			}
			_, ts := newTestServer(t, cfg)
			code, body := post(t, ts.URL+c.target, c.contentType, c.body)
			if code != c.status {
				t.Fatalf("status %d, want %d: %s", code, c.status, body)
			}
			if err := exporter.Close(); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			var spans []wireSpan
			for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
				var sp wireSpan
				if err := json.Unmarshal([]byte(line), &sp); err != nil {
					t.Fatalf("span line %q: %v", line, err)
				}
				spans = append(spans, sp)
			}
			var root *wireSpan
			for i, sp := range spans {
				if sp.ParentSpanID == "" {
					if root != nil {
						t.Fatalf("two roots: %q and %q", root.Name, sp.Name)
					}
					root = &spans[i]
				}
			}
			if root == nil || root.Name != c.root {
				t.Fatalf("root = %+v, want %q", root, c.root)
			}
			children := map[string]int{}
			for _, sp := range spans {
				if sp.SpanID == root.SpanID {
					continue
				}
				if sp.TraceID != root.TraceID || sp.ParentSpanID != root.SpanID {
					t.Fatalf("%s (trace %s, parent %s) is not a child of root %s of trace %s",
						sp.Name, sp.TraceID, sp.ParentSpanID, root.SpanID, root.TraceID)
				}
				children[sp.Name]++
				switch sp.Name {
				case "index.lookup":
					if got := stringAttr(sp, "jsonski.index.tier"); got != c.tier {
						t.Errorf("index.lookup tier %q, want %q", got, c.tier)
					}
				case "engine.run":
					checkEngineRun(t, sp, c.events, body)
				}
			}
			if !reflect.DeepEqual(children, c.children) {
				t.Fatalf("children %v, want %v", children, c.children)
			}
		})
	}
}

// engineRunAttrs are the attributes of every sampled engine.run span:
// which record and whether it ran indexed, then its cost accounting.
var engineRunAttrs = []string{
	"jsonski.record", "jsonski.indexed",
	"jsonski.matches", "jsonski.input.bytes", "jsonski.scanned.bytes",
	"jsonski.ff.bytes.G1", "jsonski.ff.bytes.G2", "jsonski.ff.bytes.G3",
	"jsonski.ff.bytes.G4", "jsonski.ff.bytes.G5", "jsonski.skip.ratio",
}

// spanEventCap is the per-span event cap of internal/telemetry.
const spanEventCap = 128

// checkEngineRun checks that an engine.run span carries every one of
// engineRunAttrs and, when events is set, the movements that body's
// explain trailer lists for the span's record, in order, up to the
// span's event cap; otherwise no events at all.
func checkEngineRun(t *testing.T, sp wireSpan, events bool, body string) {
	t.Helper()
	record := -1
	has := map[string]bool{}
	for _, a := range sp.Attributes {
		has[a.Key] = true
		if a.Key == "jsonski.record" && a.Value.IntValue != nil {
			record, _ = strconv.Atoi(*a.Value.IntValue)
		}
	}
	for _, key := range engineRunAttrs {
		if !has[key] {
			t.Errorf("engine.run of record %d lacks %s", record, key)
		}
	}
	if !events {
		if len(sp.Events) != 0 {
			t.Errorf("engine.run of record %d carries %d events outside an explain request", record, len(sp.Events))
		}
		return
	}
	var want []explainEvent
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		var trailer struct {
			Explain *struct {
				Events []explainEvent `json:"events"`
			} `json:"explain"`
		}
		if json.Unmarshal([]byte(line), &trailer) != nil || trailer.Explain == nil {
			continue
		}
		for _, e := range trailer.Explain.Events {
			if e.Record == record {
				want = append(want, e)
			}
		}
	}
	if len(want) > spanEventCap {
		want = want[:spanEventCap]
	}
	if len(want) == 0 || len(sp.Events) != len(want) {
		t.Fatalf("engine.run of record %d has %d events, want the trailer's %d (> 0)", record, len(sp.Events), len(want))
	}
	for i, ev := range sp.Events {
		got := map[string]string{}
		for _, a := range ev.Attributes {
			if a.Value.StringValue != nil {
				got[a.Key] = *a.Value.StringValue
			} else if a.Value.IntValue != nil {
				got[a.Key] = *a.Value.IntValue
			}
		}
		w := want[i]
		if ev.Name != w.Func || got["group"] != w.Group ||
			got["start"] != strconv.Itoa(w.Start) || got["bytes"] != strconv.Itoa(w.Bytes) {
			t.Errorf("record %d event %d: span %s %v, trailer %+v", record, i, ev.Name, got, w.TraceEvent)
		}
	}
}

// stringAttr returns a span's string attribute key, or "".
func stringAttr(sp wireSpan, key string) string {
	for _, a := range sp.Attributes {
		if a.Key == key && a.Value.StringValue != nil {
			return *a.Value.StringValue
		}
	}
	return ""
}
