package telemetry

import (
	crand "crypto/rand"
	"encoding/binary"
	"math"
	"sync/atomic"
	"time"
)

// TracerConfig tunes a Tracer. The zero value samples nothing but still
// propagates inbound contexts.
type TracerConfig struct {
	// SampleRatio is the head-based probability of sampling a trace
	// that arrives without a traceparent (clamped to [0,1]). Traces
	// with a valid inbound context inherit the caller's decision —
	// parent-based sampling — so a distributed trace is never torn.
	SampleRatio float64
	// ForceCollect keeps unsampled requests' spans collected (bounded,
	// in memory, never exported unless ForceSample fires) so the
	// slow-query override can still export a request whose latency is
	// only known at the end. Costs span bookkeeping on every request.
	ForceCollect bool
	// RingSize bounds the exporter ring (rounded up to a power of two).
	// 0 means DefaultRingSize.
	RingSize int
	// MaxSpansPerTrace bounds the spans collected for one request;
	// overflow is counted as dropped. 0 means DefaultMaxSpansPerTrace.
	MaxSpansPerTrace int
}

// Defaults for TracerConfig's zero fields.
const (
	DefaultRingSize         = 4096
	DefaultMaxSpansPerTrace = 512
)

// Tracer makes sampling decisions, mints IDs, and owns the bounded
// ring between request goroutines and the background exporter. All
// methods are safe for concurrent use; all are safe on a nil receiver
// (the disabled configuration), where Root runs its function with a nil
// span.
type Tracer struct {
	threshold uint64 // sample when the trace ID's low word is below this
	always    bool   // SampleRatio >= 1
	collect   bool   // ForceCollect
	maxSpans  int
	ring      *ring
	idState   atomic.Uint64

	started      atomic.Int64 // root spans started (requests seen)
	sampledN     atomic.Int64 // head-sampled at the root
	forcedN      atomic.Int64 // exported only because of ForceSample
	droppedSpans atomic.Int64 // spans lost to the ring or per-trace cap

	// Exporter-side counters live here so one Stats() call covers the
	// whole pipeline without the server knowing the exporter.
	exportedSpans atomic.Int64
	exportBatches atomic.Int64
	exportErrors  atomic.Int64
}

// NewTracer builds a tracer. The ID generator is seeded once from
// crypto/rand and advanced with a lock-free splitmix64 walk, so minting
// an ID on the hot path is a single atomic add plus mixing.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	if cfg.MaxSpansPerTrace <= 0 {
		cfg.MaxSpansPerTrace = DefaultMaxSpansPerTrace
	}
	t := &Tracer{
		collect:  cfg.ForceCollect,
		maxSpans: cfg.MaxSpansPerTrace,
		ring:     newRing(cfg.RingSize),
	}
	switch {
	case cfg.SampleRatio >= 1:
		t.always = true
		t.threshold = math.MaxUint64
	case cfg.SampleRatio > 0:
		t.threshold = uint64(cfg.SampleRatio * float64(math.MaxUint64))
	}
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err == nil {
		t.idState.Store(binary.LittleEndian.Uint64(seed[:]))
	}
	return t
}

// next advances the splitmix64 sequence one step.
func (t *Tracer) next() uint64 {
	x := t.idState.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// newSpanID mints a non-zero span ID.
func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	for !id.IsValid() {
		binary.BigEndian.PutUint64(id[:], t.next())
	}
	return id
}

// newTraceID mints a non-zero trace ID.
func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	for !id.IsValid() {
		binary.BigEndian.PutUint64(id[:8], t.next())
		binary.BigEndian.PutUint64(id[8:], t.next())
	}
	return id
}

// sampleNew decides head sampling for a fresh trace from its ID, so the
// decision is a pure function of the ID (any participant re-deriving it
// agrees).
func (t *Tracer) sampleNew(id TraceID) bool {
	if t.always {
		return true
	}
	if t.threshold == 0 {
		return false
	}
	return binary.BigEndian.Uint64(id[8:]) < t.threshold
}

// Root runs fn under the root span of one request and ends it, flushing
// or discarding the trace, when fn returns, panics included. A valid
// parent context joins the caller's trace and sampling decision, else a
// fresh trace is head-sampled by ratio. fn's span carries a context to
// inject, and records if sampled or ForceCollect is on; a nil tracer
// calls fn(nil). fn must not keep the span past its return.
func (t *Tracer) Root(name string, parent SpanContext, fn func(*Span)) {
	sp := t.startRoot(name, parent)
	defer sp.finish()
	fn(sp)
}

// startRoot begins the root span of one request; nil on a nil tracer.
func (t *Tracer) startRoot(name string, parent SpanContext) *Span {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	sp := &Span{name: name, root: true}
	if parent.IsValid() {
		sp.ctx = SpanContext{
			TraceID: parent.TraceID,
			SpanID:  t.newSpanID(),
			Sampled: parent.Sampled,
			State:   parent.State,
		}
		sp.parent = parent.SpanID
	} else {
		id := t.newTraceID()
		sp.ctx = SpanContext{
			TraceID: id,
			SpanID:  t.newSpanID(),
			Sampled: t.sampleNew(id),
		}
	}
	if sp.ctx.Sampled {
		t.sampledN.Add(1)
	}
	if sp.ctx.Sampled || t.collect {
		sp.set = &spanSet{tracer: t, max: t.maxSpans}
		sp.start = time.Now()
	}
	return sp
}

// finish receives one request's collected spans from the root's end.
func (t *Tracer) finish(spans []*Span, export, forced bool) {
	if !export {
		return
	}
	if forced {
		t.forcedN.Add(1)
	}
	for _, sp := range spans {
		if !t.ring.TryPush(sp) {
			t.droppedSpans.Add(1)
		}
	}
}

// Drain empties the ring in batches of at most n spans and hands each
// batch to export, which writes it to the exporter's sinks and returns
// how many of those writes failed. Drain counts the batches, their spans
// and the failed writes, so Stats covers the exporter too. export must
// not keep the slice, which the next batch reuses. Drain is meant for a
// single exporter goroutine; it does nothing on a nil tracer.
func (t *Tracer) Drain(n int, export func(batch []*Span) (failed int)) {
	if t == nil {
		return
	}
	batch := make([]*Span, 0, n)
	for {
		batch = batch[:0]
		for len(batch) < n {
			sp, ok := t.ring.TryPop()
			if !ok {
				break
			}
			batch = append(batch, sp)
		}
		if len(batch) == 0 {
			return
		}
		t.exportBatches.Add(1)
		t.exportedSpans.Add(int64(len(batch)))
		t.exportErrors.Add(int64(export(batch)))
	}
}

// TracerStats is a point-in-time snapshot of the tracing pipeline's
// counters, exporter side included.
type TracerStats struct {
	Started       int64 // root spans started
	Sampled       int64 // head-sampled at the root
	Forced        int64 // exported only via the slow-query override
	DroppedSpans  int64 // lost to the ring or the per-trace cap
	ExportedSpans int64 // spans handed to a sink
	ExportBatches int64 // exporter drain batches
	ExportErrors  int64 // failed sink writes/POSTs
}

// Stats snapshots the pipeline counters. Safe on a nil tracer.
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	return TracerStats{
		Started:       t.started.Load(),
		Sampled:       t.sampledN.Load(),
		Forced:        t.forcedN.Load(),
		DroppedSpans:  t.droppedSpans.Load(),
		ExportedSpans: t.exportedSpans.Load(),
		ExportBatches: t.exportBatches.Load(),
		ExportErrors:  t.exportErrors.Load(),
	}
}
