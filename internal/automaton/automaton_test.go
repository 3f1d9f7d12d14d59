package automaton

import (
	"testing"

	"jsonski/internal/jsonpath"
)

func compile(t *testing.T, q string) *Automaton {
	t.Helper()
	p, err := jsonpath.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return New(p)
}

func TestMatchKeyProgression(t *testing.T) {
	a := compile(t, "$.place.name")
	q, st := a.MatchKey(0, []byte("place"))
	if st != Matched || q != 1 {
		t.Fatalf("MatchKey(place) = %d,%v", q, st)
	}
	q, st = a.MatchKey(1, []byte("name"))
	if st != Accept || q != 2 {
		t.Fatalf("MatchKey(name) = %d,%v", q, st)
	}
	_, st = a.MatchKey(0, []byte("user"))
	if st != Unmatched {
		t.Fatalf("MatchKey(user) = %v", st)
	}
	// beyond accept state, nothing matches
	_, st = a.MatchKey(2, []byte("anything"))
	if st != Unmatched {
		t.Fatalf("MatchKey at accept = %v", st)
	}
}

func TestMatchKeyEscapedName(t *testing.T) {
	// escaped quote in the JSON input matching a plain query name
	c := compile(t, `$['say "hi"']`)
	if _, st := c.MatchKey(0, []byte(`say \"hi\"`)); st != Accept {
		t.Fatalf("escaped key should match, got %v", st)
	}
	// unicode escape A = 'A'
	d := compile(t, "$.A")
	if _, st := d.MatchKey(0, []byte(`\u0041`)); st != Accept {
		t.Fatalf("unicode-escaped key should match, got %v", st)
	}
}

func TestMatchIndex(t *testing.T) {
	a := compile(t, "$[2:4].id")
	if _, st := a.MatchIndex(0, 1); st != Unmatched {
		t.Fatalf("idx 1 = %v", st)
	}
	if q, st := a.MatchIndex(0, 2); st != Matched || q != 1 {
		t.Fatalf("idx 2 = %d,%v", q, st)
	}
	if _, st := a.MatchIndex(0, 4); st != Unmatched {
		t.Fatalf("idx 4 = %v", st)
	}
	// index on an object state
	if _, st := a.MatchIndex(1, 0); st != Unmatched {
		t.Fatalf("index at child step = %v", st)
	}
}

func TestWildcardIndex(t *testing.T) {
	a := compile(t, "$[*]")
	for _, i := range []int{0, 5, 100000} {
		if _, st := a.MatchIndex(0, i); st != Accept {
			t.Fatalf("wildcard idx %d = %v", i, st)
		}
	}
}

func TestAnyChild(t *testing.T) {
	a := compile(t, "$.*")
	if _, st := a.MatchKey(0, []byte("whatever")); st != Accept {
		t.Fatalf("any-child = %v", st)
	}
}

func TestRange(t *testing.T) {
	a := compile(t, "$[2:4]")
	lo, hi, ok := a.Range(0)
	if !ok || lo != 2 || hi != 4 {
		t.Fatalf("Range = %d,%d,%v", lo, hi, ok)
	}
	b := compile(t, "$[*]")
	if _, _, ok := b.Range(0); ok {
		t.Fatal("wildcard should be unconstrained")
	}
	c := compile(t, "$.x")
	if _, _, ok := c.Range(0); ok {
		t.Fatal("child step should be unconstrained")
	}
	d := compile(t, "$[7]")
	lo, hi, ok = d.Range(0)
	if !ok || lo != 7 || hi != 8 {
		t.Fatalf("index Range = %d,%d,%v", lo, hi, ok)
	}
}

func TestTypeExpected(t *testing.T) {
	a := compile(t, "$.pd[*].cp[1:3].id")
	// state 0 (.pd) expects a container: the RFC wildcard successor
	// selects from objects and arrays alike, but never from a primitive.
	if got := a.TypeExpected(0); got != jsonpath.Container {
		t.Errorf("state 0 expects %v", got)
	}
	// state 1 ([*]) expects object (.cp)
	if got := a.TypeExpected(1); got != jsonpath.Object {
		t.Errorf("state 1 expects %v", got)
	}
	// state 2 (.cp) expects array ([1:3])
	if got := a.TypeExpected(2); got != jsonpath.Array {
		t.Errorf("state 2 expects %v", got)
	}
	// state 4 (.id, last) unknown
	if got := a.TypeExpected(4); got != jsonpath.Unknown {
		t.Errorf("state 4 expects %v", got)
	}
	// accept state unknown
	if got := a.TypeExpected(5); got != jsonpath.Unknown {
		t.Errorf("accept expects %v", got)
	}
}

func TestStateClassifiers(t *testing.T) {
	a := compile(t, "$.pd[*].id")
	if !a.IsObjectState(0) || a.IsArrayState(0) {
		t.Error("state 0 should be an object state")
	}
	// Wildcard states select members and elements alike (RFC 9535).
	if !a.IsArrayState(1) || !a.IsObjectState(1) {
		t.Error("state 1 should be both an object and an array state")
	}
	if a.IsObjectState(3) || a.IsArrayState(3) {
		t.Error("accept state classifies as neither")
	}
}

// TestDescendantState checks that a descendant state matches its inner
// selector, reports itself for the caller to keep live, and is neither a
// named child nor range-constrained.
func TestDescendantState(t *testing.T) {
	a := compile(t, "$..a[0]")
	if !a.IsDescendant(0) || a.IsDescendant(1) || a.IsNamedChild(0) {
		t.Error("state 0 should be a descendant and not a named child")
	}
	if q, st := a.MatchKey(0, []byte("a")); q != 1 || st != Matched {
		t.Errorf("MatchKey(a) = %d,%v", q, st)
	}
	if _, st := a.MatchKey(0, []byte("b")); st != Unmatched {
		t.Errorf("MatchKey(b) = %v", st)
	}
	if _, st := a.MatchIndex(0, 0); st != Unmatched {
		t.Errorf("MatchIndex at a name selector = %v", st)
	}
	if _, _, constrained := a.Range(0); constrained {
		t.Error("descendant state is range-constrained")
	}
	if q, st := compile(t, "$..[1]").MatchIndex(0, 1); q != 1 || st != Accept {
		t.Errorf("$..[1] MatchIndex(1) = %d,%v", q, st)
	}
}

func TestRootTypeAndStepCount(t *testing.T) {
	a := compile(t, "$[*].text")
	// A leading wildcard admits object and array roots alike.
	if a.RootType(0) != jsonpath.Container {
		t.Errorf("RootType = %v", a.RootType(0))
	}
	// Two steps, then the accept state.
	if a.States() != 3 || !a.IsAccept(2) || a.IsAccept(1) {
		t.Errorf("States = %d, accept at 2: %v", a.States(), a.IsAccept(2))
	}
	if a.Step(1).Name != "text" {
		t.Errorf("Step(1) = %+v", a.Step(1))
	}
}

// TestPathsShareOneStateSpace checks the numbering of several paths:
// each path's steps, then its accept state, in path order.
func TestPathsShareOneStateSpace(t *testing.T) {
	a := New(jsonpath.MustParse("$.a.b"), jsonpath.MustParse("$"), jsonpath.MustParse("$[1]"))
	if a.Paths() != 3 || a.States() != 6 {
		t.Fatalf("Paths = %d, States = %d", a.Paths(), a.States())
	}
	for i, want := range []int{0, 3, 4} {
		if a.Start(i) != want {
			t.Errorf("Start(%d) = %d, want %d", i, a.Start(i), want)
		}
	}
	for q, want := range []int{0, 0, 0, 1, 2, 2} {
		if a.PathOf(q) != want {
			t.Errorf("PathOf(%d) = %d, want %d", q, a.PathOf(q), want)
		}
	}
	if !a.IsAccept(3) || a.RootType(1) != jsonpath.Unknown || a.RootType(2) != jsonpath.Array {
		t.Error("bare $ should start in its accept state and admit any root")
	}
	if q, st := a.MatchKey(1, []byte("b")); q != 2 || st != Accept {
		t.Errorf("MatchKey(1, b) = %d,%v", q, st)
	}
	if q, st := a.MatchIndex(4, 1); q != 5 || st != Accept {
		t.Errorf("MatchIndex(4, 1) = %d,%v", q, st)
	}
	if _, st := a.MatchIndex(2, 1); st != Unmatched || a.IsObjectState(2) || a.IsNamedChild(2) {
		t.Error("an accept state between paths should match and classify as nothing")
	}
}

func TestUnescape(t *testing.T) {
	cases := []struct{ in, want string }{
		{`plain`, "plain"},
		{`a\"b`, `a"b`},
		{`a\\b`, `a\b`},
		{`a\/b`, "a/b"},
		{`a\nb`, "a\nb"},
		{`a\tb`, "a\tb"},
		{`a\rb`, "a\rb"},
		{`a\bb`, "a\bb"},
		{`a\fb`, "a\fb"},
		{`\u0041`, "A"},
		{`\u00e9`, "é"},
		{`\u20ac`, "€"},
		{`\uZZZZ`, `\uZZZZ`}, // invalid escape kept verbatim
		{`\q`, `\q`},         // unknown escape kept verbatim
		{`trailing\`, `trailing\`},
	}
	for _, c := range cases {
		if got := string(unescape([]byte(c.in))); got != c.want {
			t.Errorf("unescape(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestStatusString(t *testing.T) {
	if Unmatched.String() != "unmatched" || Matched.String() != "matched" || Accept.String() != "accept" {
		t.Fatal("Status.String broken")
	}
}
