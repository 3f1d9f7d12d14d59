package jsonski

import (
	"fmt"
	"io"

	"jsonski/internal/fastforward"
	"jsonski/internal/telemetry"
)

// TraceEvent is one fast-forward movement recorded in explain mode: the
// paper's function that moved the cursor, the group it was charged to,
// the byte range it covered, and the automaton states the engine held:
// one state as its number, a set of two or more (below a descendant
// step) as its bitmask, bit q for state q.
type TraceEvent struct {
	Group string `json:"group"` // "G1".."G5"
	Func  string `json:"func"`  // fast-forward function (paper Table 1 names)
	Start int    `json:"start"` // first byte the movement covered
	End   int    `json:"end"`   // one past the last byte
	Bytes int    `json:"bytes"` // End - Start
	State int    `json:"state"` // automaton state, or state-set bits
}

// Trace is the bounded fast-forward event log of an explain-mode run:
// *where the bytes went*. Matching runs produce identical output with
// and without a trace; the trace only observes.
type Trace struct {
	// Events lists the movements in stream order, capped at the limit
	// the run was started with.
	Events []TraceEvent `json:"events"`
	// Dropped counts movements past the cap. Adversarial inputs (one
	// skip per byte) stay bounded: memory is limited by the cap, never
	// by the input.
	Dropped int `json:"dropped,omitempty"`
}

// DefaultTraceEvents is the event cap used when an explain run is given
// a non-positive limit.
const DefaultTraceEvents = telemetry.DefaultTraceLimit

// SkippedBytes sums the bytes covered by the recorded events.
func (t *Trace) SkippedBytes() int64 {
	var n int64
	for _, e := range t.Events {
		n += int64(e.Bytes)
	}
	return n
}

// Dump writes a human-readable rendering of the trace, one event per
// line, used by the jsonski CLI's -explain flag.
func (t *Trace) Dump(w io.Writer) {
	for _, e := range t.Events {
		fmt.Fprintf(w, "%-3s %-18s [%9d,%9d) %9d bytes  state %d\n",
			e.Group, e.Func, e.Start, e.End, e.Bytes, e.State)
	}
	if t.Dropped > 0 {
		fmt.Fprintf(w, "... %d further events dropped (cap %d)\n", t.Dropped, len(t.Events))
	}
}

// RunSinkExplain is RunSink in explain mode: matches stream into sink
// exactly as in RunSink while up to maxEvents fast-forward movements
// (DefaultTraceEvents when maxEvents <= 0) are recorded, retrievable via
// Stats.Trace. Explain runs use the same engines and produce the same
// matches; only the recording differs, so a slow query can be re-run
// verbatim to see why it moved the way it did.
func (q *Query) RunSinkExplain(data []byte, sink Sink, maxEvents int) (Stats, error) {
	return single(input{data: data}, explainRun(sink, maxEvents), q.eval)
}

// explainRun is newSinkRun for an explain run recording up to maxEvents
// fast-forward movements.
func explainRun(sink Sink, maxEvents int) *sinkRun {
	sr := newSinkRun(sink)
	sr.trace = telemetry.NewTrace(maxEvents)
	return sr
}

// publicTrace converts the internal event log to the exported form.
func publicTrace(tr *telemetry.Trace) *Trace {
	evs := tr.Events()
	out := &Trace{Events: make([]TraceEvent, len(evs)), Dropped: tr.Dropped()}
	for i, e := range evs {
		out.Events[i] = TraceEvent{
			Group: fastforward.Group(e.Group).String(),
			Func:  fastforward.Op(e.Op).String(),
			Start: e.Start,
			End:   e.End,
			Bytes: e.End - e.Start,
			State: e.State,
		}
	}
	return out
}
