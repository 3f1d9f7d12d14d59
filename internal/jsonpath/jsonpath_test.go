package jsonpath

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseBasics(t *testing.T) {
	p, err := Parse("$.place.name")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(p.Steps))
	}
	if p.Steps[0].Kind != Child || p.Steps[0].Name != "place" {
		t.Errorf("step 0 = %+v", p.Steps[0])
	}
	if p.Steps[1].Kind != Child || p.Steps[1].Name != "name" {
		t.Errorf("step 1 = %+v", p.Steps[1])
	}
}

func TestTypeInference(t *testing.T) {
	// $.place.name : place must be an object, name is unknown.
	p := MustParse("$.place.name")
	if p.Steps[0].Expect != Object {
		t.Errorf("place Expect = %v, want object", p.Steps[0].Expect)
	}
	if p.Steps[1].Expect != Unknown {
		t.Errorf("name Expect = %v, want unknown", p.Steps[1].Expect)
	}
	// $.places[2:4].name : places must be an array.
	p = MustParse("$.places[2:4].name")
	if p.Steps[0].Expect != Array {
		t.Errorf("places Expect = %v, want array", p.Steps[0].Expect)
	}
	if p.Steps[1].Expect != Object {
		t.Errorf("[2:4] Expect = %v, want object", p.Steps[1].Expect)
	}
	if p.RootType() != Object {
		t.Errorf("RootType = %v, want object", p.RootType())
	}
	// RFC 9535 wildcards select from both objects and arrays, so a
	// leading wildcard pins the root to a container, not an array.
	p = MustParse("$[*].text")
	if p.RootType() != Container {
		t.Errorf("RootType = %v, want container", p.RootType())
	}
	p = MustParse("$[3].text")
	if p.RootType() != Array {
		t.Errorf("RootType = %v, want array", p.RootType())
	}
	// A filter successor narrows to container (filters select children);
	// a child successor after a filter still infers Object for the
	// filtered values.
	p = MustParse("$.a[?@.x].name")
	if p.Steps[0].Expect != Container {
		t.Errorf("a Expect = %v, want container", p.Steps[0].Expect)
	}
	if p.Steps[1].Expect != Object {
		t.Errorf("[?@.x] Expect = %v, want object", p.Steps[1].Expect)
	}
}

func TestParsePaperQueries(t *testing.T) {
	// All 12 query shapes from Table 5 must parse.
	queries := []string{
		"$[*].en.urls[*].url",
		"$[*].text",
		"$.pd[*].cp[1:3].id",
		"$.pd[*].vc[*].cha",
		"$[*].rt[*].lg[*].st[*].dt.tx",
		"$[*].atm",
		"$.mt.vw.co[*].nm",
		"$.dt[*][*][2:4]",
		"$.it[*].bmrpr.pr",
		"$.it[*].nm",
		"$[*].cl.P150[*].ms.pty",
		"$[10:21].cl.P150[*].ms.pty",
	}
	for _, q := range queries {
		if _, err := Parse(q); err != nil {
			t.Errorf("Parse(%q): %v", q, err)
		}
	}
}

func TestParseIndexForms(t *testing.T) {
	p := MustParse("$[3]")
	if st := p.Steps[0]; st.Kind != Index || st.Lo != 3 || st.Hi != 4 {
		t.Errorf("step = %+v", st)
	}
	p = MustParse("$[2:4]")
	if st := p.Steps[0]; st.Kind != Slice || st.Lo != 2 || st.Hi != 4 || st.Stride != 1 {
		t.Errorf("step = %+v", st)
	}
	p = MustParse("$[:4]")
	if st := p.Steps[0]; st.Kind != Slice || st.Lo != 0 || st.Hi != 4 {
		t.Errorf("step = %+v", st)
	}
	p = MustParse("$[2:]")
	if st := p.Steps[0]; st.Kind != Slice || st.Lo != 2 || st.Hi != MaxIndex {
		t.Errorf("step = %+v", st)
	}
	p = MustParse("$[*]")
	if st := p.Steps[0]; st.Kind != Wildcard || st.Lo != 0 || st.Hi != MaxIndex {
		t.Errorf("step = %+v", st)
	}
}

func TestParseSteppedSlices(t *testing.T) {
	p := MustParse("$[::2]")
	if st := p.Steps[0]; st.Kind != Slice || st.Lo != 0 || st.Hi != MaxIndex || st.Stride != 2 {
		t.Errorf("step = %+v", st)
	}
	if !p.Steps[0].Streamable() {
		t.Error("[::2] should stream")
	}
	p = MustParse("$[1:10:3]")
	if st := p.Steps[0]; st.Lo != 1 || st.Hi != 10 || st.Stride != 3 {
		t.Errorf("step = %+v", st)
	}
	// Zero stride selects nothing and normalizes to an empty range.
	p = MustParse("$[1:10:0]")
	if st := p.Steps[0]; st.Lo != 0 || st.Hi != 0 || st.Stride != 1 {
		t.Errorf("step = %+v", st)
	}
	// Inverted forward slices are legal (and empty) under RFC 9535.
	p = MustParse("$[1:0]")
	if st := p.Steps[0]; st.Lo != 0 || st.Hi != 0 {
		t.Errorf("step = %+v", st)
	}
	// Negative pieces are kept raw and deferred.
	p = MustParse("$[-3:]")
	if st := p.Steps[0]; st.Lo != -3 || st.HasLo || st.Streamable() {
		if st.Lo != -3 || st.Streamable() {
			t.Errorf("step = %+v", st)
		}
	}
	p = MustParse("$[::-1]")
	if st := p.Steps[0]; st.Stride != -1 || st.HasLo || st.HasHi || st.Streamable() {
		t.Errorf("step = %+v", st)
	}
	p = MustParse("$[-1]")
	if st := p.Steps[0]; st.Kind != Index || st.Lo != -1 || st.Streamable() {
		t.Errorf("step = %+v", st)
	}
}

func TestSliceBounds(t *testing.T) {
	cases := []struct {
		q          string
		n          int
		lo, hi, st int
	}{
		{"$[1:3]", 5, 1, 3, 1},
		{"$[1:10]", 5, 1, 5, 1},
		{"$[:]", 5, 0, 5, 1},
		{"$[::2]", 5, 0, 5, 2},
		{"$[-3:]", 5, 2, 5, 1},
		{"$[:-1]", 5, 0, 4, 1},
		{"$[::-1]", 5, 4, -1, -1},
		{"$[3:0:-1]", 5, 3, 0, -1},
		{"$[-1:-4:-2]", 5, 4, 1, -2},
		{"$[1:10:0]", 5, 0, 0, 1},
	}
	for _, c := range cases {
		st := MustParse(c.q).Steps[0]
		lo, hi, stride := st.SliceBounds(c.n)
		if lo != c.lo || hi != c.hi || stride != c.st {
			t.Errorf("%s n=%d: got (%d,%d,%d), want (%d,%d,%d)",
				c.q, c.n, lo, hi, stride, c.lo, c.hi, c.st)
		}
	}
}

func TestParseQuotedChild(t *testing.T) {
	p := MustParse(`$['with.dot']["and[bracket]"]`)
	if p.Steps[0].Name != "with.dot" {
		t.Errorf("step 0 name = %q", p.Steps[0].Name)
	}
	if p.Steps[1].Name != "and[bracket]" {
		t.Errorf("step 1 name = %q", p.Steps[1].Name)
	}
	p = MustParse(`$['it\'s']`)
	if p.Steps[0].Name != "it's" {
		t.Errorf("escaped name = %q", p.Steps[0].Name)
	}
	p = MustParse(`$["tab\there"]`)
	if p.Steps[0].Name != "tab\there" {
		t.Errorf("escaped name = %q", p.Steps[0].Name)
	}
	p = MustParse(`$["é𝄞"]`)
	if p.Steps[0].Name != "é\U0001D11E" {
		t.Errorf("unicode name = %q", p.Steps[0].Name)
	}
}

func TestParseWildcardForms(t *testing.T) {
	p := MustParse("$.*.id")
	if p.Steps[0].Kind != Wildcard {
		t.Errorf("step 0 = %+v", p.Steps[0])
	}
	if p.Steps[0].Expect != Object {
		t.Errorf("Expect = %v", p.Steps[0].Expect)
	}
	// .* and [*] are the same selector under RFC 9535.
	q := MustParse("$[*].id")
	if q.Steps[0].Kind != Wildcard {
		t.Errorf("step 0 = %+v", q.Steps[0])
	}
	if !q.Steps[0].SelectsMembers() || !q.Steps[0].SelectsElements() {
		t.Error("wildcard must select both members and elements")
	}
}

func TestParseUnion(t *testing.T) {
	p := MustParse(`$['a','b',1,?@.x]`)
	st := p.Steps[0]
	if st.Kind != Union || len(st.Sel) != 4 {
		t.Fatalf("step = %+v", st)
	}
	if st.Sel[0].Kind != Child || st.Sel[0].Name != "a" {
		t.Errorf("sel 0 = %+v", st.Sel[0])
	}
	if st.Sel[2].Kind != Index || st.Sel[2].Lo != 1 {
		t.Errorf("sel 2 = %+v", st.Sel[2])
	}
	if st.Sel[3].Kind != Filter || st.Sel[3].Filter == nil {
		t.Errorf("sel 3 = %+v", st.Sel[3])
	}
	if st.Streamable() {
		t.Error("unions are deferred")
	}
	if !st.SelectsMembers() || !st.SelectsElements() {
		t.Error("union of name+index selects both")
	}
	p = MustParse(`$[ 'a' , 2 ]`)
	if len(p.Steps[0].Sel) != 2 {
		t.Errorf("step = %+v", p.Steps[0])
	}
}

func TestParseFilter(t *testing.T) {
	p := MustParse("$.items[?@.price < 10].name")
	st := p.Steps[1]
	if st.Kind != Filter || st.Filter == nil {
		t.Fatalf("step = %+v", st)
	}
	f := st.Filter
	if f.Op != FilterCompare || f.Cmp != CmpLT {
		t.Fatalf("expr = %+v", f)
	}
	if f.Left.IsLiteral || f.Left.Query.Absolute || len(f.Left.Query.Path.Steps) != 1 {
		t.Errorf("left = %+v", f.Left)
	}
	if !f.Right.IsLiteral || f.Right.Lit.Kind != LitNumber || f.Right.Lit.Num != 10 {
		t.Errorf("right = %+v", f.Right)
	}
	refs, eligible := f.SingularChildRefs()
	if !eligible || len(refs) != 1 || refs[0][0] != "price" {
		t.Errorf("refs = %v eligible = %v", refs, eligible)
	}

	p = MustParse(`$[?@.a && (@.b == 'x' || !@.c)]`)
	f = p.Steps[0].Filter
	if f.Op != FilterAnd || len(f.Kids) != 2 {
		t.Fatalf("expr = %+v", f)
	}
	if f.Kids[0].Op != FilterExists {
		t.Errorf("kid 0 = %+v", f.Kids[0])
	}
	or := f.Kids[1]
	if or.Op != FilterOr || len(or.Kids) != 2 || or.Kids[1].Op != FilterNot {
		t.Errorf("kid 1 = %+v", or)
	}

	// Absolute references and non-child steps defeat skip eligibility.
	for _, q := range []string{"$[?$.limit > @.n]", "$[?@[0] == 1]", "$[?@.*]", "$[?@]"} {
		_, eligible := MustParse(q).Steps[0].Filter.SingularChildRefs()
		if eligible {
			t.Errorf("%s should not be skip-eligible", q)
		}
	}
	// Existence tests over child chains stay eligible.
	if _, ok := MustParse("$[?@.a.b && @.c == null]").Steps[0].Filter.SingularChildRefs(); !ok {
		t.Error("child-chain existence test should be skip-eligible")
	}
}

func TestParseFilterLiterals(t *testing.T) {
	f := MustParse(`$[?@.a == -0.5e2]`).Steps[0].Filter
	if f.Right.Lit.Num != -50 {
		t.Errorf("num = %v", f.Right.Lit.Num)
	}
	f = MustParse(`$[?@.a == "qA"]`).Steps[0].Filter
	if f.Right.Lit.Str != "qA" {
		t.Errorf("str = %q", f.Right.Lit.Str)
	}
	f = MustParse(`$[?@.a != null]`).Steps[0].Filter
	if f.Right.Lit.Kind != LitNull {
		t.Errorf("lit = %+v", f.Right.Lit)
	}
	f = MustParse(`$[?true == @.a]`).Steps[0].Filter
	if !f.Left.IsLiteral || f.Left.Lit.Kind != LitBool {
		t.Errorf("left = %+v", f.Left)
	}
}

func TestSplitPoint(t *testing.T) {
	cases := []struct {
		q    string
		want int
	}{
		{"$.a[*].b", -1},
		{"$.a[?@.x].b", -1},
		{"$..name", -1},
		{"$.a[::2]", -1},
		{"$.a[-1]", 1},
		{"$.a['x','y']", 1},
		{"$.a[?@.x]..b", 1},  // filter + descendant: split at the filter
		{"$..a[?@.x]", 0},    // descendant + filter: split at the descendant
		{"$..['a','b']", 0},  // multi-selector descendant is deferred
		{"$.a[1:0:-1].b", 1}, // backward slice
		{"$..a..b", 1},       // second descendant: a set cannot count runs
		{"$.x..a.b..c", 3},
		{"$" + strings.Repeat(".a", 62), -1},
		{"$" + strings.Repeat(".a", 70), MaxStreamSteps},
		{"$" + strings.Repeat(".a", 61) + "['x','y']", 61},
	}
	for _, c := range cases {
		if got := MustParse(c.q).SplitPoint(); got != c.want {
			t.Errorf("SplitPoint(%s) = %d, want %d", c.q, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"place.name",          // no $
		"$.",                  // empty child
		"$[",                  // unterminated
		"$[abc]",              // junk in bracket
		"$['unterminated",     // unterminated quote
		"$[-1",                // unterminated after index
		"$[]",                 // missing index
		"$x",                  // junk after $
		"$[01]",               // leading zero
		"$[-0]",               // negative zero
		"$[1:0:-]",            // '-' with no digits in step
		"$[?@.a",              // unterminated filter
		"$[?]",                // empty filter
		"$[?@.a == ]",         // missing operand
		"$[?@.* == 1]",        // non-singular comparison operand
		"$[?@.a = 1]",         // bad operator
		"$[?true]",            // bare literal
		"$[?length(@.a) > 1]", // function extension
		"$['a' 'b']",          // missing comma
		"$.foo-bar",           // hyphen not allowed in shorthand
		"$.1a",                // shorthand cannot start with a digit
		" $.a",                // leading whitespace
		"$.a ",                // trailing whitespace
		`$["\q"]`,             // invalid escape
		`$['\"']`,             // wrong-quote escape
		`$["\uD800"]`,         // lone surrogate
		"$[9007199254740992]", // beyond I-JSON exact range
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestParseErrorMessage(t *testing.T) {
	_, err := Parse("$[abc]")
	if err == nil || !strings.Contains(err.Error(), "unexpected") {
		t.Errorf("error = %v", err)
	}
	var pe *ParseError
	if pe, _ = err.(*ParseError); pe == nil {
		t.Fatalf("error type = %T", err)
	}
}

// TestParseErrorRegressions pins the exact diagnostic text and byte
// offset for the parser's error paths. These are regression tests: the
// messages are part of the tool's user interface (they surface verbatim
// through Compile, the server's /query endpoint, and the CLI), so a
// reworded message or a drifted offset is a breaking change that must
// be made deliberately, here.
func TestParseErrorRegressions(t *testing.T) {
	cases := []struct {
		expr string
		msg  string
		pos  int
	}{
		// Slices and indices.
		{"$[1:0:-]", "expected digits after '-'", 7},
		{"$[01]", "leading zeros are not allowed", 4},
		{"$[-0]", "negative zero is not a valid index", 4},
		{"$[--1]", "expected digits after '-'", 3},
		{"$[9007199254740992]", "index out of range: 9007199254740992", 18},
		// Brackets and strings.
		{"$[", "unterminated '['", 2},
		{"$[]", "empty bracketed selection", 2},
		{"$['a", "unterminated string literal", 4},
		{"$[1 2]", "expected ',' or ']', got '2'", 4},
		// Filters.
		{"$[?@.a", "unterminated '['", 6},
		{"$[?]", "unexpected ']' in filter expression", 3},
		{"$[?@.a == ]", "missing comparison operand", 10},
		{"$[?@[*] == 1]", "comparison operand must be a singular query", 10},
		{"$[?@.a == @..b]", "comparison operand must be a singular query", 14},
		{"$[?@.a = 1]", "invalid comparison operator '='; use '=='", 7},
		{"$[?(@.a == 1]", "expected ')'", 12},
		{"$[?true]", "literal must be part of a comparison", 7},
		{"$[?length(@) > 1]", "function extensions are not supported: length()", 3},
		// Shorthands and roots.
		{"$.", "invalid member name shorthand", 2},
		{"$.1", "invalid member name shorthand", 2},
		{"$..", "'..' needs a selector", 3},
		{"", "empty query", 0},
		{"a.b", "query must start with '$'", 0},
	}
	for _, tc := range cases {
		_, err := Parse(tc.expr)
		if err == nil {
			t.Errorf("Parse(%q) should fail", tc.expr)
			continue
		}
		pe, ok := err.(*ParseError)
		if !ok {
			t.Errorf("Parse(%q) error type = %T, want *ParseError", tc.expr, err)
			continue
		}
		if pe.Msg != tc.msg {
			t.Errorf("Parse(%q) Msg = %q, want %q", tc.expr, pe.Msg, tc.msg)
		}
		if pe.Pos != tc.pos {
			t.Errorf("Parse(%q) Pos = %d, want %d", tc.expr, pe.Pos, tc.pos)
		}
		if pe.Query != tc.expr {
			t.Errorf("Parse(%q) Query = %q", tc.expr, pe.Query)
		}
		want := fmt.Sprintf("jsonpath: %s at offset %d in %q", tc.msg, tc.pos, tc.expr)
		if got := err.Error(); got != want {
			t.Errorf("Parse(%q) Error() = %q, want %q", tc.expr, got, want)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad input")
		}
	}()
	MustParse("$[bad")
}

func TestParseDescendant(t *testing.T) {
	p := MustParse("$..name")
	if len(p.Steps) != 1 || p.Steps[0].Kind != Descendant {
		t.Fatalf("steps = %+v", p.Steps)
	}
	if len(p.Steps[0].Sel) != 1 || p.Steps[0].Sel[0].Kind != Child || p.Steps[0].Sel[0].Name != "name" {
		t.Fatalf("sel = %+v", p.Steps[0].Sel)
	}
	if !p.HasDescendant() {
		t.Fatal("HasDescendant should be true")
	}
	p = MustParse("$.store..price[0]")
	if p.Steps[1].Kind != Descendant || p.Steps[1].Sel[0].Name != "price" {
		t.Fatalf("steps = %+v", p.Steps)
	}
	// type inference is suppressed around descendants
	if p.Steps[0].Expect != Unknown || p.Steps[1].Expect != Unknown {
		t.Fatalf("Expect leaked through descendant: %+v", p.Steps)
	}
	p = MustParse("$..*")
	if p.Steps[0].Kind != Descendant || p.Steps[0].Sel[0].Kind != Wildcard {
		t.Fatalf("steps = %+v", p.Steps)
	}
	p = MustParse("$..[0]")
	if p.Steps[0].Sel[0].Kind != Index || !p.Steps[0].Streamable() {
		t.Fatalf("steps = %+v", p.Steps)
	}
	p = MustParse("$..[?@.x]")
	if p.Steps[0].Streamable() {
		t.Fatal("filter under descendant must defer")
	}
	if MustParse("$.a.b").HasDescendant() {
		t.Fatal("HasDescendant false positive")
	}
	if _, err := Parse("$.."); err == nil {
		t.Fatal("bare '..' should error")
	}
}

func TestFilterExprString(t *testing.T) {
	for _, q := range []string{
		"$[?@.price < 10]",
		`$[?@.a && (@.b == 'x' || !@.c)]`,
		"$[?$.max >= @.n.m]",
		"$[?@['odd name'] != null]",
	} {
		f := MustParse(q).Steps[0].Filter
		rendered := "$[?" + f.String() + "]"
		p2, err := Parse(rendered)
		if err != nil {
			t.Errorf("%s rendered as unparseable %q: %v", q, rendered, err)
			continue
		}
		if p2.Steps[0].Filter.String() != f.String() {
			t.Errorf("%s: render not stable: %q vs %q", q, p2.Steps[0].Filter.String(), f.String())
		}
	}
}

func TestCompareSemantics(t *testing.T) {
	n := func(f float64) CmpVal { return CmpVal{V: f} }
	s := func(v string) CmpVal { return CmpVal{V: v} }
	missing := CmpVal{Missing: true}
	null := CmpVal{V: nil}

	if !Compare(CmpEQ, missing, missing) {
		t.Error("Nothing == Nothing")
	}
	if Compare(CmpEQ, missing, null) {
		t.Error("Nothing != null")
	}
	if Compare(CmpLT, missing, n(1)) || Compare(CmpLE, missing, n(1)) {
		t.Error("Nothing is not ordered")
	}
	if !Compare(CmpLE, missing, missing) {
		t.Error("Nothing <= Nothing (via ==)")
	}
	if !Compare(CmpLT, n(1), n(2)) || Compare(CmpLT, n(2), n(1)) {
		t.Error("number ordering")
	}
	if !Compare(CmpLT, s("a"), s("b")) {
		t.Error("string ordering")
	}
	if Compare(CmpLT, n(1), s("b")) || Compare(CmpLE, n(1), s("b")) {
		t.Error("cross-type ordering must be false")
	}
	if Compare(CmpEQ, n(1), s("1")) {
		t.Error("cross-type equality must be false")
	}
	if !Compare(CmpNE, n(1), s("1")) {
		t.Error("cross-type != must be true")
	}
	a := DecodeValue([]byte(`[1, {"a": "b"}]`))
	b := DecodeValue([]byte(`[1.0,{"a":"b"}]`))
	if !Compare(CmpEQ, a, b) {
		t.Error("deep equality with numeric unification")
	}
	if Compare(CmpEQ, a, DecodeValue([]byte(`[1,{"a":"c"}]`))) {
		t.Error("deep inequality")
	}
	if v := DecodeValue([]byte(`"it's"`)); v.V != "it's" {
		t.Errorf("decoded string = %#v", v.V)
	}
	if v := DecodeValue([]byte(" 42.5 ")); v.V != 42.5 {
		t.Errorf("decoded number = %#v", v.V)
	}
	if v := DecodeValue(nil); !v.Missing {
		t.Error("empty raw is Missing")
	}
}

func TestTypeOfByte(t *testing.T) {
	if TypeOfByte('{') != Object || TypeOfByte('[') != Array ||
		TypeOfByte('"') != Primitive || TypeOfByte('7') != Primitive ||
		TypeOfByte('t') != Primitive {
		t.Fatal("TypeOfByte misclassifies")
	}
}

func TestStringers(t *testing.T) {
	if Object.String() != "object" || Array.String() != "array" ||
		Primitive.String() != "primitive" || Unknown.String() != "unknown" {
		t.Fatal("ValueType.String broken")
	}
	for _, k := range []StepKind{Child, Index, Slice, Wildcard, Filter, Union, Descendant} {
		if k.String() == "" {
			t.Fatal("StepKind.String broken")
		}
	}
	p := MustParse("$.a[1]")
	if p.String() != "$.a[1]" {
		t.Errorf("Path.String = %q", p.String())
	}
}
