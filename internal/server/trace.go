package server

import (
	"bufio"
	"time"

	"jsonski"
	"jsonski/internal/fastforward"
	"jsonski/internal/telemetry"
)

// spanTraceEvents caps the fast-forward movements lifted onto one
// engine span of a sampled request. It is deliberately smaller than the
// explain-trailer caps: spans travel to a collector per request, while
// explain output is an opt-in debugging surface.
const spanTraceEvents = 64

// finishRecord accounts one record evaluation that started at t0: its
// latency and engine counters, then, on a sampled span, the paper's
// cost accounting — matches, input vs scanned bytes, and the per-group
// fast-forward charges of Table 1 — plus the movement log when the run
// recorded one. It ends the span (possibly nil: unsampled request);
// callers must not touch it after.
func (s *Server) finishRecord(sp *telemetry.Span, idx int, t0 time.Time, st jsonski.Stats, err error) {
	// End unconditionally (a no-op on non-recording spans), so the span
	// reaches End() on the unsampled early-return path too — the same
	// contract spanend enforces at every StartChild site.
	defer sp.End()
	s.m.recordLatency.Observe(time.Since(t0))
	s.m.addStats(st)
	if !sp.Recording() {
		return
	}
	sp.SetInt("jsonski.record", int64(idx))
	sp.SetInt("jsonski.matches", st.Matches)
	sp.SetInt("jsonski.input.bytes", st.InputBytes)
	sp.SetInt("jsonski.scanned.bytes", st.ScannedBytes())
	for g, v := range st.SkippedBytes {
		sp.SetInt("jsonski.ff.bytes."+fastforward.Group(g).String(), v)
	}
	sp.SetFloat("jsonski.skip.ratio", st.FastForwardRatio())
	if tr := st.Trace(); tr != nil {
		// Movement events are lifted after the run (the hot loop only
		// appends to the bounded internal log), so event timestamps are
		// span-relative in ordering, not wall-accurate per movement.
		for _, e := range tr.Events {
			sp.AddEvent(e.Func,
				telemetry.String("group", e.Group),
				telemetry.Int("start", int64(e.Start)),
				telemetry.Int("bytes", int64(e.Bytes)))
		}
		if tr.Dropped > 0 {
			sp.SetInt("jsonski.trace.dropped_events", int64(tr.Dropped))
		}
	}
	sp.SetError(err)
}

// flushSink flushes the buffered response writer under a sink.flush
// child span, so a trace shows how much of a request's latency was the
// client draining output rather than the engine producing it.
func (s *Server) flushSink(rsp *telemetry.Span, bw *bufio.Writer) {
	sp := rsp.StartChild("sink.flush")
	defer sp.End()
	err := bw.Flush()
	sp.SetError(err)
}
