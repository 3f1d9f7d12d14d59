package telemetry

import "testing"

func TestTraceRecordsEvents(t *testing.T) {
	tr := NewTrace(10)
	tr.SetState(3)
	tr.Record(0, 1, 5, 40)
	tr.SetState(4)
	tr.Record(3, 9, 41, 100)
	ev := tr.Events()
	if len(ev) != 2 {
		t.Fatalf("got %d events, want 2", len(ev))
	}
	if ev[0] != (Event{Group: 0, Op: 1, Start: 5, End: 40, State: 3}) {
		t.Errorf("event 0 = %+v", ev[0])
	}
	if ev[1] != (Event{Group: 3, Op: 9, Start: 41, End: 100, State: 4}) {
		t.Errorf("event 1 = %+v", ev[1])
	}
}

func TestTraceCapBoundsAdversarialInput(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 100; i++ {
		tr.Record(1, 3, i, i+1)
	}
	if len(tr.Events()) != 4 {
		t.Fatalf("events = %d, want cap 4", len(tr.Events()))
	}
	if tr.Dropped() != 96 {
		t.Fatalf("dropped = %d, want 96", tr.Dropped())
	}
}

// TestTraceDefaultLimit checks that a non-positive limit means
// DefaultTraceLimit: that many events are kept and the rest dropped.
func TestTraceDefaultLimit(t *testing.T) {
	tr := NewTrace(0)
	for i := 0; i < DefaultTraceLimit+100; i++ {
		tr.Record(1, 3, i, i+1)
	}
	if got := len(tr.Events()); got != DefaultTraceLimit {
		t.Fatalf("default limit: events = %d, want %d", got, DefaultTraceLimit)
	}
	if tr.Dropped() != 100 {
		t.Fatalf("dropped = %d, want 100", tr.Dropped())
	}
}

// TestNilTraceIsInert calls every Trace method on a nil receiver: the
// disabled path holds a nil *Trace and calls through it unguarded.
func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	tr.SetState(7)
	tr.Record(0, 1, 0, 10)
	if ev := tr.Events(); ev != nil {
		t.Errorf("nil trace Events = %v, want nil", ev)
	}
	if n := tr.Dropped(); n != 0 {
		t.Errorf("nil trace Dropped = %d, want 0", n)
	}
}
