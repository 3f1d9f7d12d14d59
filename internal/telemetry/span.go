package telemetry

import (
	"context"
	"encoding/hex"
	"sync"
	"time"
)

// TraceID is the W3C trace-context trace identifier: 16 bytes shared by
// every span of one distributed trace.
type TraceID [16]byte

// IsValid reports whether the ID is non-zero (the W3C invalid value).
func (id TraceID) IsValid() bool { return id != TraceID{} }

// String returns the 32-char lowercase hex form used on the wire.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// SpanID is the W3C trace-context span identifier: 8 bytes naming one
// span within a trace.
type SpanID [8]byte

// IsValid reports whether the ID is non-zero (the W3C invalid value).
func (id SpanID) IsValid() bool { return id != SpanID{} }

// String returns the 16-char lowercase hex form used on the wire.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// SpanContext is the propagated part of a span: what travels in the
// traceparent/tracestate headers and what a child span inherits.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	// Sampled mirrors the traceparent sampled flag: the head-based
	// decision every participant in the trace agrees on.
	Sampled bool
	// State carries the inbound tracestate header verbatim (bounded;
	// see ParseTraceparent). This process never adds entries.
	State string
}

// IsValid reports whether the context names a real span.
func (c SpanContext) IsValid() bool { return c.TraceID.IsValid() && c.SpanID.IsValid() }

// attrKind discriminates the Attr value union.
type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrFloat
	attrBool
)

// Attr is one span or event attribute: a key and a typed value.
// Construct with String, Int, Float, or Bool.
type Attr struct {
	Key  string
	kind attrKind
	s    string
	i    int64
	f    float64
	b    bool
}

// String builds a string-valued attribute.
func String(key, v string) Attr { return Attr{Key: key, kind: attrString, s: v} }

// Int builds an integer-valued attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, kind: attrInt, i: v} }

// Float builds a float-valued attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, kind: attrFloat, f: v} }

// Bool builds a boolean-valued attribute.
func Bool(key string, v bool) Attr { return Attr{Key: key, kind: attrBool, b: v} }

// SpanEvent is one timestamped event attached to a span — here, one
// fast-forward movement lifted from the engine's trace hooks.
type SpanEvent struct {
	Name  string
	Time  time.Time
	Attrs []Attr
}

// maxSpanEvents bounds a single span's event list; movements past the
// cap are counted in the OTLP droppedEventsCount field instead of
// growing memory with the input.
const maxSpanEvents = 128

// Span is one timed operation of a request. All methods are safe on a
// nil receiver and do nothing — the disabled-tracing path costs exactly
// the nil check, mirroring the *Trace hook contract. A span lives in the
// Tracer.Root or Span.Child scope that ends it, owned by one goroutine;
// only its end crosses into the shared per-request set, under its lock.
type Span struct {
	set  *spanSet // nil on non-recording spans
	name string
	ctx  SpanContext
	// parent is the zero SpanID on local roots with no inbound context.
	parent        SpanID
	root          bool
	start, end    time.Time
	attrs         []Attr
	events        []SpanEvent
	droppedEvents int
	errMsg        string
	ended         bool
}

// Recording reports whether attributes and events on this span can ever
// be exported. A non-recording span still carries a valid context for
// propagation (response-header injection, child requests).
func (s *Span) Recording() bool { return s != nil && s.set != nil }

// Context returns the span's propagation context, or the zero context
// on a nil span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// Child runs fn under a child span and ends it when fn returns, panics
// included. A nil or non-recording parent calls fn(nil), so a disabled
// subtree costs one nil check per level. fn must not keep the span.
func (s *Span) Child(name string, fn func(*Span)) {
	var c *Span
	if s != nil && s.set != nil {
		ctx := s.ctx
		ctx.SpanID = s.set.tracer.newSpanID()
		c = &Span{
			set:    s.set,
			name:   name,
			ctx:    ctx,
			parent: s.ctx.SpanID,
			start:  time.Now(),
		}
	}
	defer c.finish()
	fn(c)
}

// SetString attaches a string attribute.
func (s *Span) SetString(key, v string) {
	if s == nil || s.set == nil {
		return
	}
	s.attrs = append(s.attrs, String(key, v))
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil || s.set == nil {
		return
	}
	s.attrs = append(s.attrs, Int(key, v))
}

// SetFloat attaches a float attribute.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil || s.set == nil {
		return
	}
	s.attrs = append(s.attrs, Float(key, v))
}

// SetBool attaches a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	if s == nil || s.set == nil {
		return
	}
	s.attrs = append(s.attrs, Bool(key, v))
}

// AddEvent attaches one timestamped event, bounded at maxSpanEvents;
// overflow is counted, never silently lost (satellite of the same rule
// the explain trailer follows).
func (s *Span) AddEvent(name string, attrs ...Attr) {
	if s == nil || s.set == nil {
		return
	}
	if len(s.events) >= maxSpanEvents {
		s.droppedEvents++
		return
	}
	s.events = append(s.events, SpanEvent{Name: name, Time: time.Now(), Attrs: attrs})
}

// SetError records a failed operation; the exported span carries OTLP
// status ERROR with the message.
func (s *Span) SetError(err error) {
	if s == nil || s.set == nil || err == nil {
		return
	}
	s.errMsg = err.Error()
}

// ForceSample marks the whole request for export regardless of the
// head-based sampling decision — the slow-query override. Valid any
// time before the root span ends.
func (s *Span) ForceSample() {
	if s == nil || s.set == nil {
		return
	}
	s.set.force()
}

// finish ends the span and hands it to the per-request set. Ending the
// root span decides the request's fate: sampled or forced requests
// flush every collected span to the exporter ring (drop-on-full),
// everything else is discarded in O(1). finish is idempotent.
func (s *Span) finish() {
	if s == nil || s.set == nil || s.ended {
		return
	}
	s.ended = true
	s.end = time.Now()
	s.set.add(s)
}

// spanSet collects the spans of one traced request until its root ends.
// It is the only cross-goroutine surface of the span model: per-record
// child spans end on pool workers while the root lives on the handler
// goroutine.
type spanSet struct {
	tracer *Tracer
	mu     sync.Mutex
	spans  []*Span
	max    int
	// forced records a ForceSample (slow-query override) so an
	// unsampled-but-collected request still exports at root end.
	forced bool
	// done flips when the root ends; spans arriving later (a leaked
	// child ending after its root) are counted as dropped.
	done bool
}

// add appends one finished span, enforcing the per-request cap. The
// root is exempt from the cap: it must always land so the set flushes —
// a capped-out request still exports a stitchable (if truncated) trace.
func (ss *spanSet) add(sp *Span) {
	ss.mu.Lock()
	if ss.done || (!sp.root && len(ss.spans) >= ss.max) {
		ss.mu.Unlock()
		ss.tracer.droppedSpans.Add(1)
		return
	}
	ss.spans = append(ss.spans, sp)
	if sp.root {
		spans, export := ss.spans, sp.ctx.Sampled || ss.forced
		forced := ss.forced && !sp.ctx.Sampled
		ss.done = true
		ss.spans = nil
		ss.mu.Unlock()
		ss.tracer.finish(spans, export, forced)
		return
	}
	ss.mu.Unlock()
}

// force marks the set for export at root end.
func (ss *spanSet) force() {
	ss.mu.Lock()
	ss.forced = true
	ss.mu.Unlock()
}

// spanCtxKey keys the active span in a context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying sp as the active span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the active span, or nil when the context
// carries none (tracing disabled or unsampled-and-uncollected).
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}
