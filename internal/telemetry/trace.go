package telemetry

// Event is one recorded fast-forward movement: which group and function
// moved the cursor, over which byte range, and the automaton state the
// engine was in at the time. For the NFA engine State holds the live
// state-set bitmask instead of a single DFA state.
type Event struct {
	Group      int    // 0-based fast-forward group (0 ↔ G1 ... 4 ↔ G5)
	Op         string // fast-forward function name
	Start, End int    // half-open byte range the movement covered
	State      int    // automaton state (or NFA state-set bits)
}

// DefaultTraceLimit is the event cap used when NewTrace is given a
// non-positive limit. Adversarial inputs (say, a million one-byte
// primitives) generate one event per skip, so the cap — not the input —
// bounds a trace's memory.
const DefaultTraceLimit = 4096

// Trace is a bounded event log recorded by the fast-forward layer when
// explain mode is on. It is owned by a single engine and is not safe
// for concurrent use; the engine publishes it only after the run ends.
//
// The disabled path is a nil *Trace. Every method is a no-op on a nil
// receiver, as Span's are, so callers hold a trace unconditionally;
// Record stays small enough to inline into the fast-forward layer's
// charge, so a disabled trace costs one branch per movement.
type Trace struct {
	events  []Event
	limit   int
	dropped int
	state   int
}

// NewTrace returns a trace holding at most limit events (DefaultTraceLimit
// when limit <= 0). The event slice is allocated lazily on first Record.
func NewTrace(limit int) *Trace {
	if limit <= 0 {
		limit = DefaultTraceLimit
	}
	return &Trace{limit: limit}
}

// SetState sets the automaton state the engine last reported; Record
// copies it into each event. The engine updates it as it descends.
func (t *Trace) SetState(q int) {
	if t != nil {
		t.state = q
	}
}

// Record appends one event, or counts it as dropped once the cap is hit.
// Keep it one switch: charge inlines it only while it stays this small.
func (t *Trace) Record(group int, op string, start, end int) {
	switch {
	case t == nil: // explain off
	case len(t.events) >= t.limit:
		t.dropped++
	default:
		if t.events == nil {
			t.events = make([]Event, 0, min(t.limit, 256))
		}
		t.events = append(t.events, Event{Group: group, Op: op, Start: start, End: end, State: t.state})
	}
}

// Events returns the recorded events. The slice aliases the trace's
// internal storage and grows with later Records.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Dropped returns how many events were discarded beyond the cap.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	return t.dropped
}
