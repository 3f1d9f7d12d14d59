package traceexport

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jsonski/internal/telemetry"
)

func TestExporterHTTPAndFileSinks(t *testing.T) {
	var gotBody atomic.Pointer[[]byte]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/traces" {
			t.Errorf("POST path %s", r.URL.Path)
		}
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("content type %s", ct)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r.Body)
		b := buf.Bytes()
		gotBody.Store(&b)
	}))
	defer srv.Close()

	tr := telemetry.NewTracer(telemetry.TracerConfig{SampleRatio: 1})
	file := filepath.Join(t.TempDir(), "trace.ndjson")
	// Endpoint without a path: /v1/traces must be appended.
	exp, err := New(tr, Config{
		Endpoint: srv.URL,
		FilePath: file,
		Service:  "jsonskid-test",
		Interval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	tr.Root("POST /query", telemetry.SpanContext{}, func(root *telemetry.Span) {
		root.Child("engine.run", func(child *telemetry.Span) {
			child.SetInt("jsonski.matches", 1)
		})
	})

	deadline := time.Now().Add(5 * time.Second)
	for gotBody.Load() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}

	body := gotBody.Load()
	if body == nil {
		t.Fatal("collector never received a POST")
	}
	var export struct {
		ResourceSpans []struct {
			Resource struct {
				Attributes []struct {
					Key   string `json:"key"`
					Value struct {
						StringValue string `json:"stringValue"`
					} `json:"value"`
				} `json:"attributes"`
			} `json:"resource"`
			ScopeSpans []struct {
				Spans []struct {
					TraceID      string `json:"traceId"`
					ParentSpanID string `json:"parentSpanId"`
					Name         string `json:"name"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(*body, &export); err != nil {
		t.Fatalf("collector body is not OTLP/JSON: %v", err)
	}
	if len(export.ResourceSpans) != 1 {
		t.Fatalf("resourceSpans: %d", len(export.ResourceSpans))
	}
	ra := export.ResourceSpans[0].Resource.Attributes
	if len(ra) != 1 || ra[0].Key != "service.name" || ra[0].Value.StringValue != "jsonskid-test" {
		t.Fatalf("resource attributes: %+v", ra)
	}
	spans := export.ResourceSpans[0].ScopeSpans[0].Spans
	if len(spans) != 2 {
		t.Fatalf("exported %d spans", len(spans))
	}

	// File sink: one span object per line, same trace.
	nd, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(nd)), "\n")
	if len(lines) != 2 {
		t.Fatalf("file sink has %d lines", len(lines))
	}
	for _, line := range lines {
		var sp struct {
			TraceID string `json:"traceId"`
		}
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("file line %q: %v", line, err)
		}
		if sp.TraceID != spans[0].TraceID {
			t.Fatalf("file trace %s != POST trace %s", sp.TraceID, spans[0].TraceID)
		}
	}

	st := tr.Stats()
	if st.ExportedSpans != 2 || st.ExportBatches == 0 || st.ExportErrors != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestExporterStalledEndpointNeverBlocksProducers pins the exporter's
// core promise: with the collector hung, producing goroutines keep
// finishing instantly (the ring drops), the exporter's POSTs time out
// and count as errors, and Close returns promptly.
func TestExporterStalledEndpointNeverBlocksProducers(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release // stall every POST
	}))
	defer srv.Close()
	defer close(release)

	tr := telemetry.NewTracer(telemetry.TracerConfig{SampleRatio: 1, RingSize: 8})
	exp, err := New(tr, Config{
		Endpoint:  srv.URL,
		Interval:  time.Millisecond,
		Timeout:   50 * time.Millisecond,
		BatchSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	for i := 0; i < 200; i++ {
		tr.Root("req", telemetry.SpanContext{}, func(root *telemetry.Span) {
			root.Child("engine.run", func(*telemetry.Span) {})
		})
	}
	if produceTime := time.Since(start); produceTime > 2*time.Second {
		t.Fatalf("producers took %v with a stalled collector", produceTime)
	}
	st := tr.Stats()
	if st.DroppedSpans == 0 {
		t.Fatal("full ring did not drop")
	}

	closeStart := time.Now()
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(closeStart); d > 5*time.Second {
		t.Fatalf("Close took %v against a stalled collector", d)
	}
	if st := tr.Stats(); st.ExportErrors == 0 {
		t.Fatal("stalled POSTs were not counted as errors")
	}
}

func TestExporterConfigValidation(t *testing.T) {
	tr := telemetry.NewTracer(telemetry.TracerConfig{})
	if _, err := New(tr, Config{}); err == nil {
		t.Fatal("sinkless exporter accepted")
	}
	if _, err := New(tr, Config{Endpoint: "::bad::"}); err == nil {
		t.Fatal("unparseable endpoint accepted")
	}
	if _, err := New(tr, Config{FilePath: filepath.Join(t.TempDir(), "no", "such", "dir", "f")}); err == nil {
		t.Fatal("unwritable file path accepted")
	}
}
