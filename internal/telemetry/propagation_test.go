package telemetry

import (
	"strings"
	"testing"
)

func TestParseTraceparent(t *testing.T) {
	const good = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	c, ok := ParseTraceparent(good, "vendor=x")
	if !ok {
		t.Fatal("valid header rejected")
	}
	if c.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id %s", c.TraceID)
	}
	if c.SpanID.String() != "00f067aa0ba902b7" {
		t.Fatalf("span id %s", c.SpanID)
	}
	if !c.Sampled {
		t.Fatal("sampled flag lost")
	}
	if c.State != "vendor=x" {
		t.Fatalf("tracestate %q", c.State)
	}
	if got := c.Traceparent(); got != good {
		t.Fatalf("round-trip: %s", got)
	}

	c2, _ := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00", "")
	if c2.Sampled {
		t.Fatal("flags 00 parsed as sampled")
	}

	// A future version with trailing fields parses by prefix.
	if _, ok := ParseTraceparent("42-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", ""); !ok {
		t.Fatal("future version rejected")
	}

	// Oversized tracestate is dropped whole, context kept.
	c3, ok := ParseTraceparent(good, strings.Repeat("v=1,", 200))
	if !ok || c3.State != "" {
		t.Fatalf("oversized tracestate: ok=%t state=%q", ok, c3.State)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",      // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0",    // short flags
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // reserved version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",   // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",   // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",   // non-hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7-01",   // bad separator
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x", // v0 with trailer
		"004bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01xx",  // shifted fields
	}
	for _, h := range bad {
		if c, ok := ParseTraceparent(h, ""); ok {
			t.Errorf("accepted %q -> %+v", h, c)
		}
	}
}

func TestTraceparentInjectionMatchesW3CShape(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRatio: 1})
	tr.Root("req", SpanContext{}, func(root *Span) {
		h := root.Context().Traceparent()
		if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
			t.Fatalf("injected header %q", h)
		}
		back, ok := ParseTraceparent(h, "")
		if !ok || back.TraceID != root.Context().TraceID || back.SpanID != root.Context().SpanID {
			t.Fatalf("injected header does not round-trip: %q", h)
		}
	})
	drainAll(tr)
}
