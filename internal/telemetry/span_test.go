package telemetry

import (
	"errors"
	"sync"
	"testing"
)

// drainAll pops every span currently in the tracer's ring.
func drainAll(t *Tracer) []*Span {
	var out []*Span
	for {
		sp, ok := t.ring.TryPop()
		if !ok {
			return out
		}
		out = append(out, sp)
	}
}

func TestNilSpanIsInert(t *testing.T) {
	var sp *Span
	if sp.Recording() {
		t.Fatal("nil span records")
	}
	// All of these must be no-ops, not panics: the disabled path runs
	// them unguarded.
	sp.SetString("k", "v")
	sp.SetInt("k", 1)
	sp.SetFloat("k", 1.5)
	sp.SetBool("k", true)
	sp.AddEvent("e")
	sp.SetError(errors.New("x"))
	sp.ForceSample()
	sp.finish()
	ran := 0
	sp.Child("child", func(c *Span) {
		ran++
		if c != nil {
			t.Fatal("nil span produced a child")
		}
	})
	if ctx := sp.Context(); ctx.IsValid() {
		t.Fatal("nil span has a valid context")
	}
	var tr *Tracer
	tr.Root("r", SpanContext{}, func(got *Span) {
		ran++
		if got != nil {
			t.Fatal("nil tracer produced a span")
		}
	})
	if ran != 2 {
		t.Fatalf("scoped bodies ran %d times, want 2", ran)
	}
	if st := tr.Stats(); st != (TracerStats{}) {
		t.Fatal("nil tracer has stats")
	}
}

func TestSampledRootExportsTree(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRatio: 1})
	tr.Root("req", SpanContext{}, func(root *Span) {
		if !root.Recording() {
			t.Fatal("always-sample root not recording")
		}
		root.Child("engine.run", func(child *Span) { child.SetInt("matches", 3) })
		root.SetString("path", "/query")
	})

	spans := drainAll(tr)
	if len(spans) != 2 {
		t.Fatalf("exported %d spans, want 2", len(spans))
	}
	if spans[0].name != "engine.run" || spans[1].name != "req" {
		t.Fatalf("span order: %q, %q", spans[0].name, spans[1].name)
	}
	if spans[0].ctx.TraceID != spans[1].ctx.TraceID {
		t.Fatal("child has a different trace ID")
	}
	if spans[0].parent != spans[1].ctx.SpanID {
		t.Fatal("child's parent is not the root")
	}
	if spans[1].parent.IsValid() {
		t.Fatal("local root has a parent span ID")
	}
	st := tr.Stats()
	if st.Started != 1 || st.Sampled != 1 || st.DroppedSpans != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestScopesEndOnPanic: a panic inside a Child or Root body still ends
// the span on the way out, so the request's trace flushes with the
// child in it.
func TestScopesEndOnPanic(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRatio: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		tr.Root("req", SpanContext{}, func(root *Span) {
			root.Child("engine.run", func(*Span) { panic("boom") })
		})
	}()
	spans := drainAll(tr)
	if len(spans) != 2 || spans[0].name != "engine.run" || spans[1].name != "req" {
		t.Fatalf("exported %d spans after a panic, want engine.run then req", len(spans))
	}
	for _, sp := range spans {
		if !sp.ended || sp.end.IsZero() {
			t.Fatalf("span %q not ended", sp.name)
		}
	}
}

func TestUnsampledRootDiscards(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRatio: 0})
	tr.Root("req", SpanContext{}, func(root *Span) {
		if root == nil {
			t.Fatal("root is nil; propagation context lost")
		}
		if root.Recording() {
			t.Fatal("unsampled root records without ForceCollect")
		}
		if !root.Context().IsValid() {
			t.Fatal("unsampled root lacks a context for injection")
		}
		if root.Context().Sampled {
			t.Fatal("unsampled root claims the sampled flag")
		}
		root.Child("x", func(c *Span) {
			if c != nil {
				t.Fatal("unsampled root produced a recording child")
			}
		})
	})
	if got := drainAll(tr); len(got) != 0 {
		t.Fatalf("unsampled trace exported %d spans", len(got))
	}
}

func TestParentBasedSampling(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRatio: 0}) // local decision: never
	parent, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", "")
	if !ok {
		t.Fatal("parse failed")
	}
	tr.Root("req", parent, func(root *Span) {
		if !root.Recording() {
			t.Fatal("sampled inbound context did not override the local ratio")
		}
		if root.Context().TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
			t.Fatalf("trace ID not inherited: %s", root.Context().TraceID)
		}
		if root.parent.String() != "00f067aa0ba902b7" {
			t.Fatalf("parent span ID not inherited: %s", root.parent)
		}
	})
	if got := drainAll(tr); len(got) != 1 {
		t.Fatalf("exported %d spans, want 1", len(got))
	}

	// The unsampled flag is inherited just the same.
	parent.Sampled = false
	tr2(t).Root("req", parent, func(root2 *Span) {
		if root2.Recording() {
			t.Fatal("unsampled inbound context was sampled locally")
		}
	})
}

func tr2(t *testing.T) *Tracer {
	t.Helper()
	return NewTracer(TracerConfig{SampleRatio: 1})
}

func TestForceSampleExportsUnsampledTrace(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRatio: 0, ForceCollect: true})
	tr.Root("req", SpanContext{}, func(root *Span) {
		if !root.Recording() {
			t.Fatal("ForceCollect root not recording")
		}
		root.Child("engine.run", func(*Span) {})
		root.ForceSample() // the slow-query override fires
	})
	if got := drainAll(tr); len(got) != 2 {
		t.Fatalf("forced trace exported %d spans, want 2", len(got))
	}
	st := tr.Stats()
	if st.Forced != 1 || st.Sampled != 0 {
		t.Fatalf("stats: %+v", st)
	}

	// Without the override the collected spans evaporate at root end.
	tr.Root("req", SpanContext{}, func(root *Span) {
		root.Child("engine.run", func(*Span) {})
	})
	if got := drainAll(tr); len(got) != 0 {
		t.Fatalf("uninteresting trace exported %d spans", len(got))
	}
}

func TestPerTraceSpanCap(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRatio: 1, MaxSpansPerTrace: 4})
	tr.Root("req", SpanContext{}, func(root *Span) {
		for i := 0; i < 10; i++ {
			root.Child("c", func(*Span) {})
		}
	})
	spans := drainAll(tr)
	// 4 children fill the cap, 6 drop, and the root — exempt, so the
	// flush always fires — still lands.
	if len(spans) != 5 {
		t.Fatalf("exported %d spans, want 5", len(spans))
	}
	if spans[len(spans)-1].name != "req" {
		t.Fatal("root displaced by the cap; requests would become unstitchable")
	}
	if st := tr.Stats(); st.DroppedSpans != 6 {
		t.Fatalf("dropped %d spans, want 6", st.DroppedSpans)
	}
}

func TestRingDropOnFull(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRatio: 1, RingSize: 2})
	for i := 0; i < 5; i++ {
		tr.Root("req", SpanContext{}, func(*Span) {})
	}
	if st := tr.Stats(); st.DroppedSpans != 3 {
		t.Fatalf("dropped %d spans, want 3", st.DroppedSpans)
	}
	if got := drainAll(tr); len(got) != 2 {
		t.Fatalf("ring held %d spans, want 2", len(got))
	}
}

func TestSpanEventCap(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRatio: 1})
	tr.Root("req", SpanContext{}, func(root *Span) {
		for i := 0; i < maxSpanEvents+17; i++ {
			root.AddEvent("ff")
		}
	})
	spans := drainAll(tr)
	if len(spans[0].events) != maxSpanEvents {
		t.Fatalf("kept %d events", len(spans[0].events))
	}
	if spans[0].droppedEvents != 17 {
		t.Fatalf("dropped %d events, want 17", spans[0].droppedEvents)
	}
}

func TestEndIsIdempotent(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRatio: 1})
	root := tr.startRoot("req", SpanContext{})
	root.finish()
	root.finish()
	if got := drainAll(tr); len(got) != 1 {
		t.Fatalf("double finish exported %d spans", len(got))
	}
}

func TestSampleRatioStatistics(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleRatio: 0.5, RingSize: 1 << 14})
	const n = 4096
	sampled := 0
	for i := 0; i < n; i++ {
		tr.Root("req", SpanContext{}, func(root *Span) {
			if root.Recording() {
				sampled++
			}
		})
	}
	// Binomial(4096, 0.5): ±8 sigma is ±256.
	if sampled < n/2-256 || sampled > n/2+256 {
		t.Fatalf("sampled %d of %d at ratio 0.5", sampled, n)
	}
}

func TestRingConcurrent(t *testing.T) {
	r := newRing(64)
	const producers = 8
	const perProducer = 10000
	var pushed, dropped, popped atomic64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // consumer
		defer wg.Done()
		for {
			if sp, ok := r.TryPop(); ok {
				_ = sp
				popped.add(1)
				continue
			}
			select {
			case <-stop:
				// Producers are done: drain the remainder.
				for {
					if _, ok := r.TryPop(); !ok {
						return
					}
					popped.add(1)
				}
			default:
			}
		}
	}()
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			sp := &Span{}
			for i := 0; i < perProducer; i++ {
				if r.TryPush(sp) {
					pushed.add(1)
				} else {
					dropped.add(1)
				}
			}
		}()
	}
	pwg.Wait()
	close(stop)
	wg.Wait()
	if pushed.load()+dropped.load() != producers*perProducer {
		t.Fatalf("accounting hole: pushed %d dropped %d", pushed.load(), dropped.load())
	}
	if popped.load() != pushed.load() {
		t.Fatalf("popped %d != pushed %d", popped.load(), pushed.load())
	}
}

type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
