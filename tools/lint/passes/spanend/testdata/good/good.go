package good

import "fix/telemetry"

var tracer = &telemetry.Tracer{}

func deferred() {
	sp := tracer.StartRoot("q", telemetry.SpanContext{})
	defer sp.End()
	sp.SetInt("k", 1)
}

func straightLine() {
	sp := tracer.StartRoot("q", telemetry.SpanContext{})
	sp.SetInt("k", 1)
	sp.End()
}

func chained() {
	tracer.StartRoot("q", telemetry.SpanContext{}).End()
}

func endedThroughAlias() {
	sp := tracer.StartRoot("q", telemetry.SpanContext{})
	alias := sp
	alias.End()
}

func deferredClosure() {
	sp := tracer.StartRoot("q", telemetry.SpanContext{})
	defer func() { sp.End() }()
	sp.SetInt("k", 1)
}

// The ServeHTTP shape: End is conditional but on the only path where
// the span exists, with no return in between.
func conditional(trace bool) {
	var sp *telemetry.Span
	if trace {
		sp = tracer.StartRoot("q", telemetry.SpanContext{})
	}
	work()
	if sp != nil {
		sp.End()
	}
}

func work() {}

// Returning the span hands its End to the caller.
func transferReturn() *telemetry.Span {
	return tracer.StartRoot("q", telemetry.SpanContext{})
}

func transferReturnBound() *telemetry.Span {
	sp := tracer.StartRoot("q", telemetry.SpanContext{})
	sp.SetInt("k", 1)
	return sp
}

// The finishRecord pattern: a helper that Ends on the caller's
// behalf takes the span as an argument — a visible hand-off.
func transferCallArg(root *telemetry.Span) {
	sp := root.StartChild("engine.run")
	finish(sp, 0)
}

func finish(sp *telemetry.Span, status int64) {
	sp.SetInt("status", status)
	sp.End()
}

// Stored spans belong to the structure's owner.
type holder struct{ sp *telemetry.Span }

func transferStore(h *holder) {
	h.sp = tracer.StartRoot("q", telemetry.SpanContext{})
}

func transferComposite() holder {
	return holder{sp: tracer.StartRoot("q", telemetry.SpanContext{})}
}

func transferSend(ch chan *telemetry.Span) {
	sp := tracer.StartRoot("q", telemetry.SpanContext{})
	ch <- sp
}
