package server

import (
	"bufio"
	"time"

	"jsonski"
	"jsonski/internal/telemetry"
)

// ffBytesKeys are the span attribute names of the per-group
// fast-forward charges, G1 to G5, spelled out so that setting them on a
// sampled span builds no string.
var ffBytesKeys = [5]string{
	"jsonski.ff.bytes.G1",
	"jsonski.ff.bytes.G2",
	"jsonski.ff.bytes.G3",
	"jsonski.ff.bytes.G4",
	"jsonski.ff.bytes.G5",
}

// runRecord runs one record evaluation under an engine.run child span
// of rsp and accounts it: its latency and engine counters, then, on a
// sampled span, the paper's cost accounting — matches, input vs scanned
// bytes, and the per-group fast-forward charges of Table 1 — plus, on
// an explain request, the movement log its trailer renders. run gets
// the span (nil on an unsampled request) and returns the evaluation's
// stats and error.
func (s *Server) runRecord(rsp *telemetry.Span, idx int, run func(*telemetry.Span) (jsonski.Stats, error)) (st jsonski.Stats, err error) {
	rsp.Child("engine.run", func(sp *telemetry.Span) {
		t0 := time.Now()
		st, err = run(sp)
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
			sp.SetInt(ffBytesKeys[g], v)
		}
		sp.SetFloat("jsonski.skip.ratio", st.FastForwardRatio())
		if tr := st.Trace(); tr != nil {
			// Movement events are lifted after the run (the hot loop
			// only appends to the bounded internal log), so event
			// timestamps are span-relative in ordering, not
			// wall-accurate per movement.
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
	})
	return st, err
}

// flushSink flushes the buffered response writer under a sink.flush
// child span, so a trace shows how much of a request's latency was the
// client draining output rather than the engine producing it.
func (s *Server) flushSink(rsp *telemetry.Span, bw *bufio.Writer) {
	rsp.Child("sink.flush", func(sp *telemetry.Span) { sp.SetError(bw.Flush()) })
}
