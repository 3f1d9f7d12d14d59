package jsonski_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"jsonski"
)

// explainDoc is small enough that the full fast-forward movement
// sequence is auditable by hand, yet exercises four of the five paper
// groups: G1 (typed attribute skips), G2 (irrelevant object), G3
// (post-match output skip), and G4 (object-end jumps).
var explainDoc = []byte(`{"alpha": {"x": 1, "y": [1, 2, 3]}, "beta": [10, 20, 30, 40], "gamma": {"target": "hit", "rest": {"deep": [true, false]}}, "delta": "tail"}`)

// TestExplainGolden pins the exact movement sequence of a known query
// over a known document. The trace is an API surface — the server's
// explain trailer and the CLI's -explain both render it — so changes to
// the fast-forward call sites should show up here deliberately, not by
// accident.
func TestExplainGolden(t *testing.T) {
	q := jsonski.MustCompile("$.gamma.target")
	st, err := q.RunSinkExplain(explainDoc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := st.Trace()
	if tr == nil {
		t.Fatal("explain run returned no trace")
	}
	want := []jsonski.TraceEvent{
		{Group: "G1", Func: "GoOverPriAttrs", Start: 1, End: 10, Bytes: 9, State: 0},
		{Group: "G2", Func: "GoOverObj", Start: 10, End: 34, Bytes: 24, State: 0},
		{Group: "G1", Func: "GoOverPriAttrs", Start: 34, End: 44, Bytes: 10, State: 0},
		{Group: "G1", Func: "GoOverAry", Start: 44, End: 60, Bytes: 16, State: 0},
		{Group: "G1", Func: "GoOverPriAttrs", Start: 60, End: 71, Bytes: 11, State: 0},
		{Group: "G3", Func: "GoOverPriAttrOut", Start: 82, End: 87, Bytes: 5, State: 1},
		{Group: "G4", Func: "GoToObjEnd", Start: 87, End: 121, Bytes: 34, State: 1},
		{Group: "G4", Func: "GoToObjEnd", Start: 121, End: 139, Bytes: 18, State: 0},
	}
	if len(tr.Events) != len(want) {
		t.Fatalf("got %d events, want %d:\n%+v", len(tr.Events), len(want), tr.Events)
	}
	for i, e := range tr.Events {
		if e != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
	if tr.Dropped != 0 {
		t.Fatalf("dropped = %d", tr.Dropped)
	}
	// The trace's byte accounting must agree with the stats the same run
	// produced.
	var skipped int64
	for _, v := range st.SkippedBytes {
		skipped += v
	}
	if got := tr.SkippedBytes(); got != skipped {
		t.Fatalf("trace bytes %d != stats skipped bytes %d", got, skipped)
	}
}

// TestExplainMatchesRegularRun asserts that explain mode only observes:
// matches and stats are identical with and without a trace.
func TestExplainMatchesRegularRun(t *testing.T) {
	for _, path := range []string{"$.gamma.target", "$.alpha.y[1]", "$.beta[0:2]", "$..deep"} {
		q := jsonski.MustCompile(path)
		var plain [][]byte
		var explained jsonski.BufferSink
		st1, err1 := q.Run(explainDoc, func(m jsonski.Match) {
			plain = append(plain, append([]byte(nil), m.Value...))
		})
		st2, err2 := q.RunSinkExplain(explainDoc, &explained, 0)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: errs %v / %v", path, err1, err2)
		}
		if st1.Matches != st2.Matches || st1.InputBytes != st2.InputBytes ||
			st1.SkippedBytes != st2.SkippedBytes {
			t.Fatalf("%s: stats diverge: %+v vs %+v", path, st1, st2)
		}
		if len(plain) != len(explained.Values) {
			t.Fatalf("%s: %d vs %d matches", path, len(plain), len(explained.Values))
		}
		for i := range plain {
			if !bytes.Equal(plain[i], explained.Values[i]) {
				t.Fatalf("%s: match %d %q vs %q", path, i, plain[i], explained.Values[i])
			}
		}
	}
}

// TestExplainBounded asserts the hard event cap: a tiny limit yields
// exactly that many events plus an accurate dropped count, and memory
// never scales with the input.
func TestExplainBounded(t *testing.T) {
	q := jsonski.MustCompile("$.gamma.target")
	st, err := q.RunSinkExplain(explainDoc, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := st.Trace()
	if len(tr.Events) != 3 {
		t.Fatalf("got %d events, want cap of 3", len(tr.Events))
	}
	if tr.Dropped != 5 {
		t.Fatalf("dropped = %d, want 5 (golden run has 8 events)", tr.Dropped)
	}
}

// TestExplainNFAStateSet checks descendant-path explain: an event
// carries a lone state as its number (0, the descendant itself) and a
// set of two or more as its bitmask (3 for states 0 and 1, inside the
// matched "a"), and dead values still show up as G2 skips.
func TestExplainNFAStateSet(t *testing.T) {
	doc := []byte(`{"a": {"x": [1], "b": 2}, "c": 3}`)
	q := jsonski.MustCompile("$..a.b")
	st, err := q.RunSinkExplain(doc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != 1 {
		t.Fatalf("matches = %d", st.Matches)
	}
	var states []int
	for _, ev := range st.Trace().Events {
		if ev.Group != "G2" {
			t.Errorf("event %+v: want a G2 skip", ev)
		}
		states = append(states, ev.State)
	}
	if fmt.Sprint(states) != "[0 3 0]" {
		t.Fatalf("event states %v, want [0 3 0]", states)
	}
}

// TestExplainDump smoke-tests the CLI rendering.
func TestExplainDump(t *testing.T) {
	q := jsonski.MustCompile("$.gamma.target")
	st, err := q.RunSinkExplain(explainDoc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	st.Trace().Dump(&sb)
	out := sb.String()
	if !strings.Contains(out, "GoToObjEnd") || !strings.Contains(out, "G4") {
		t.Fatalf("dump missing expected content:\n%s", out)
	}
	if n := strings.Count(out, "\n"); n != 8 {
		t.Fatalf("dump has %d lines, want 8", n)
	}
}

// TestOrdinaryRunHasNoTrace pins the zero-overhead contract's API half:
// non-explain entry points never attach a trace.
func TestOrdinaryRunHasNoTrace(t *testing.T) {
	q := jsonski.MustCompile("$.gamma.target")
	st, err := q.Run(explainDoc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trace() != nil {
		t.Fatal("plain Run attached a trace")
	}
}

// TestExplainFilterProbePlans pins the explain surface of the filter
// planner: a skip-eligible predicate (relative singular child chains
// only) shows FilterProbe(skip-eligible) events and G1/G4 charges from
// its mini child-chain probes, while a predicate with an absolute
// reference falls back to FilterProbe(full-parse). Both charge the
// candidate capture to a fast-forward group, so the skip accounting
// demonstrably covers filter traversal.
func TestExplainFilterProbePlans(t *testing.T) {
	doc := []byte(`{"items": [` +
		`{"price": 5, "pad": {"a": [1, 2, 3], "b": "xxxxxxxxxxxxxxxx"}, "name": "cheap"},` +
		`{"price": 50, "pad": {"a": [4, 5, 6], "b": "yyyyyyyyyyyyyyyy"}, "name": "dear"}` +
		`], "max": 10}`)

	q := jsonski.MustCompile("$.items[?@.price < 10]")
	st, err := q.RunSinkExplain(doc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != 1 {
		t.Fatalf("matches = %d", st.Matches)
	}
	var probes, rejects int
	for _, e := range st.Trace().Events {
		if strings.HasPrefix(e.Func, "FilterProbe(skip-eligible)") {
			probes++
			if strings.HasSuffix(e.Func, "reject") {
				rejects++
			}
			if e.Group != "G5" {
				t.Fatalf("element candidate charged to %s, want G5: %+v", e.Group, e)
			}
		}
	}
	if probes != 2 || rejects != 1 {
		t.Fatalf("probes = %d rejects = %d, want 2/1:\n%+v", probes, rejects, st.Trace().Events)
	}
	// The skip-eligible plan fast-forwards: candidate capture plus the
	// mini-DFA probe charges must cover most of the input.
	if r := st.FastForwardRatio(); r < 0.5 {
		t.Fatalf("filter run fast-forward ratio = %.2f, want >= 0.5", r)
	}

	q2 := jsonski.MustCompile("$.items[?@.price < $.max]")
	st2, err := q2.RunSinkExplain(doc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Matches != 1 {
		t.Fatalf("abs-ref matches = %d", st2.Matches)
	}
	full := 0
	for _, e := range st2.Trace().Events {
		if strings.HasPrefix(e.Func, "FilterProbe(full-parse)") {
			full++
		}
	}
	if full != 2 {
		t.Fatalf("full-parse probes = %d, want 2:\n%+v", full, st2.Trace().Events)
	}
}
