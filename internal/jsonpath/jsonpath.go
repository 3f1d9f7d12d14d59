// Package jsonpath parses the RFC 9535 JSONPath dialect supported by
// JSONSki. The paper's subset (§5.1) — root `$`, child access `.name` /
// `['name']`, array index `[n]`, index range `[m:n]`, wildcard `[*]` /
// `.*`, and the descendant operator `..name` — is extended with the
// RFC's remaining selector forms: filter expressions (`?@.price < 10`,
// RFC 9535 §2.3.5), slices with steps and negative bounds (`[::2]`,
// `[-3:]`, §2.3.4), and unions of bracketed selectors (`['a','b',1]`,
// §2.5.1). Function extensions (§2.4) are not supported and are
// rejected at parse time.
//
// Beyond parsing, the package performs the type inference of paper
// §3.2 (each step's Expect comes from its successor) and classifies
// every step as streamable — evaluable in one forward pass by the
// streaming engine, possibly with filter probes — or deferred, in
// which case Compile splits the path at [Path.SplitPoint] and hands the
// tail to the DOM-walking reference evaluator.
package jsonpath

import (
	"fmt"
	"strconv"
	"strings"
)

// ValueType classifies a JSON value's syntactic type as far as the query
// can infer it.
type ValueType uint8

// Value types inferable from a path.
const (
	Unknown ValueType = iota // any type (final step, or no constraint)
	Object
	Array
	Primitive
	// Container admits objects and arrays but not primitives: the
	// inference a wildcard, filter, or union successor yields, since each
	// selects children of either container kind (RFC 9535 wildcard
	// duality) but nothing from a primitive.
	Container
)

// String implements fmt.Stringer.
func (t ValueType) String() string {
	switch t {
	case Object:
		return "object"
	case Array:
		return "array"
	case Primitive:
		return "primitive"
	case Container:
		return "container"
	default:
		return "unknown"
	}
}

// Admits reports whether a value of concrete type vt can satisfy the
// expectation t (the G1 type-filter test).
func (t ValueType) Admits(vt ValueType) bool {
	switch t {
	case Unknown:
		return true
	case Container:
		return vt == Object || vt == Array
	default:
		return vt == t
	}
}

// TypeOfByte infers the type of the value starting with byte b.
func TypeOfByte(b byte) ValueType {
	switch b {
	case '{':
		return Object
	case '[':
		return Array
	default:
		return Primitive
	}
}

// StepKind discriminates the path step variants.
type StepKind uint8

// Step kinds.
const (
	Child      StepKind = iota // .name or ['name']
	Index                      // [n] (negative = from the end, deferred)
	Slice                      // [m:n] or [m:n:s]
	Wildcard                   // .* or [*] — every member and every element (RFC 9535 §2.3.2)
	Filter                     // [?expr] (RFC 9535 §2.3.5)
	Union                      // [s1,s2,...] — two or more bracketed selectors
	Descendant                 // ..name / ..* / ..[sel] (RFC 9535 §2.5.2)
)

// String implements fmt.Stringer.
func (k StepKind) String() string {
	switch k {
	case Child:
		return "child"
	case Index:
		return "index"
	case Slice:
		return "slice"
	case Wildcard:
		return "wildcard"
	case Filter:
		return "filter"
	case Union:
		return "union"
	default:
		return "descendant"
	}
}

// MaxIndex is the exclusive upper bound used for unconstrained element
// ranges ([*] and open-ended forward slices).
const MaxIndex = int(^uint(0) >> 1)

// maxSelectorInt bounds selector integers to I-JSON exact range
// (RFC 9535 §2.1: -(2^53)+1 .. (2^53)-1).
const maxSelectorInt = 1<<53 - 1

// Step is one matching step of a compiled path.
type Step struct {
	Kind StepKind
	Name string // Child only

	// Index/Slice/Wildcard element range. For streamable (forward,
	// non-negative) slices the parser normalizes defaults into Lo/Hi
	// (Lo+1 == Hi for Index, MaxIndex for open ends) so the automaton
	// can consume them directly. Deferred slices (negative bounds or
	// stride) keep the raw values; resolve them with [Step.SliceBounds].
	Lo, Hi int
	Stride int  // Slice step; 1 when absent, negative iterates backwards
	HasLo  bool // Slice: lower bound was given (or normalized)
	HasHi  bool // Slice: upper bound was given (or normalized)

	Filter *FilterExpr // Filter only
	Sel    []Step      // Union members; Descendant: the inner selector(s)

	// Expect is the inferred type of the value this step selects,
	// derived from the step that follows (§3.2): Object before a child
	// step, Array before an index step, Unknown at the tail.
	Expect ValueType
}

// SelectsMembers reports whether the step can select object members.
func (st *Step) SelectsMembers() bool {
	switch st.Kind {
	case Child, Wildcard, Filter:
		return true
	case Union:
		for i := range st.Sel {
			if st.Sel[i].SelectsMembers() {
				return true
			}
		}
	}
	return false
}

// SelectsElements reports whether the step can select array elements.
func (st *Step) SelectsElements() bool {
	switch st.Kind {
	case Index, Slice, Wildcard, Filter:
		return true
	case Union:
		for i := range st.Sel {
			if st.Sel[i].SelectsElements() {
				return true
			}
		}
	}
	return false
}

// Streamable reports whether the step can be evaluated in a single
// forward pass by the streaming engine: child and wildcard steps,
// non-negative indexes, forward slices, filters (via span probes), and
// descendant segments with one streamable non-filter selector. Unions,
// negative indexes/bounds, and backward slices are deferred — their
// RFC semantics need the container length or per-selector output order.
func (st Step) Streamable() bool {
	switch st.Kind {
	case Child, Wildcard, Filter:
		return true
	case Index:
		return st.Lo >= 0
	case Slice:
		return st.Stride >= 1 && st.Lo >= 0 && st.Hi >= 0
	case Descendant:
		if len(st.Sel) != 1 {
			return false
		}
		s := st.Sel[0]
		// A filter is decided from a single state, and a descendant
		// keeps its own state live beside it, so `..[?...]` is deferred.
		return s.Kind != Filter && s.Kind != Descendant && s.Streamable()
	default: // Union
		return false
	}
}

// SliceBounds resolves a slice step against an array of length n using
// the RFC 9535 §2.3.4.2.2 algorithm. Iterate i := lo; stride > 0 ? i <
// hi : i > hi; i += stride. A zero stride selects nothing (lo == hi).
func (st Step) SliceBounds(n int) (lo, hi, stride int) {
	stride = st.Stride
	if stride == 0 {
		return 0, 0, 1
	}
	start, end := st.Lo, st.Hi
	if !st.HasLo {
		if stride > 0 {
			start = 0
		} else {
			start = n - 1
		}
	} else if start < 0 {
		start += n
	}
	if !st.HasHi {
		if stride > 0 {
			end = n
		} else {
			end = -n - 1
		}
	} else if end < 0 {
		end += n
	}
	clamp := func(v, min, max int) int {
		if v < min {
			return min
		}
		if v > max {
			return max
		}
		return v
	}
	if stride > 0 {
		return clamp(start, 0, n), clamp(end, 0, n), stride
	}
	return clamp(start, -1, n-1), clamp(end, -1, n-1), stride
}

// Path is a compiled JSONPath query.
type Path struct {
	Steps []Step
	src   string
}

// HasDescendant reports whether any step is a descendant step.
func (p *Path) HasDescendant() bool {
	for _, st := range p.Steps {
		if st.Kind == Descendant {
			return true
		}
	}
	return false
}

// HasFilter reports whether any step is a filter step (a filter nested
// inside a descendant or union segment counts).
func (p *Path) HasFilter() bool {
	for _, st := range p.Steps {
		if st.Kind == Filter {
			return true
		}
		for _, s := range st.Sel {
			if s.Kind == Filter {
				return true
			}
		}
	}
	return false
}

// MaxStreamSteps bounds the steps the streaming engine evaluates: it
// holds its set of automaton states in one uint64 word, one bit per
// state plus the accept bit.
const MaxStreamSteps = 62

// SplitPoint returns the index of the first step the streaming engine
// cannot evaluate in a forward pass, or -1 when the whole path streams.
// The path splits at the earliest of:
//   - a deferred step (union, negative index or bound, backward slice):
//     its RFC semantics need the container length or per-selector order;
//   - a second descendant step: RFC 9535 §2.5.2.2 outputs a node once
//     for each descendant run that reaches it, and a set of states
//     cannot count runs;
//   - step MaxStreamSteps, the width of the state set.
//
// A path that mixes a descendant and a filter before that point splits
// at the earlier of the two: a filter candidate is decided from a single
// state, and a live descendant keeps the set larger than one.
func (p *Path) SplitPoint() int {
	k, desc, filt := -1, -1, -1
	for i := range p.Steps {
		st := &p.Steps[i]
		if i == MaxStreamSteps || !st.Streamable() || st.Kind == Descendant && desc >= 0 {
			k = i
			break
		}
		switch {
		case st.Kind == Descendant:
			desc = i
		case st.Kind == Filter && filt < 0:
			filt = i
		}
	}
	if desc >= 0 && filt >= 0 {
		return min(desc, filt)
	}
	return k
}

// String returns the original query text.
func (p *Path) String() string { return p.src }

// stepExpect is the §3.2 inference: the type a value must have for the
// given successor step to select anything from it.
func stepExpect(next Step) ValueType {
	switch next.Kind {
	case Child:
		return Object
	case Index, Slice:
		return Array
	case Wildcard, Filter, Union:
		// These select children of objects and arrays alike, but nothing
		// from a primitive: G1 can still skip primitive values.
		return Container
	default: // Descendant: inference is defeated (level unknown)
		return Unknown
	}
}

// RootType returns the inferred type of the whole record: an object when
// the first step only selects members, an array when it only selects
// elements, and Unknown otherwise (bare `$`, wildcard, filter, ...).
func (p *Path) RootType() ValueType {
	if len(p.Steps) == 0 {
		return Unknown
	}
	return stepExpect(p.Steps[0])
}

// ParseError describes a syntax error in a path expression.
type ParseError struct {
	Query string
	Pos   int
	Msg   string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("jsonpath: %s at offset %d in %q", e.Msg, e.Pos, e.Query)
}

// Parse compiles a JSONPath expression. The grammar is RFC 9535's:
// no whitespace padding around the query, strict member-name
// shorthands, strict string escapes, and no leading zeros or negative
// zero in selector integers.
func Parse(query string) (*Path, error) {
	if query == "" {
		return nil, &ParseError{query, 0, "empty query"}
	}
	if query[0] != '$' {
		return nil, &ParseError{query, 0, "query must start with '$'"}
	}
	p := &parser{src: query, pos: 1}
	steps, err := p.segments()
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.src) {
		return nil, p.errf("expected '.' or '[', got %q", p.src[p.pos])
	}
	inferTypes(steps)
	return &Path{Steps: steps, src: query}, nil
}

// inferTypes fills each step's Expect from its successor (§3.2). A
// descendant defeats inference on both sides: its level is unknown.
func inferTypes(steps []Step) {
	for i := range steps {
		if i+1 == len(steps) || steps[i].Kind == Descendant ||
			steps[i+1].Kind == Descendant {
			steps[i].Expect = Unknown
			continue
		}
		steps[i].Expect = stepExpect(steps[i+1])
	}
}

// MustParse is Parse for statically known-good queries; it panics on error.
func MustParse(query string) *Path {
	p, err := Parse(query)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	src string
	pos int
}

func (p *parser) errf(format string, args ...any) error {
	return &ParseError{p.src, p.pos, fmt.Sprintf(format, args...)}
}

func (p *parser) skipWS() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// segments parses *(S segment). It stops — rewinding any whitespace —
// at the first position where no segment starts, so filter sub-queries
// (`@.a == 1`) end exactly where their path syntax does.
func (p *parser) segments() ([]Step, error) {
	var steps []Step
	for {
		save := p.pos
		p.skipWS()
		if p.pos >= len(p.src) || (p.src[p.pos] != '.' && p.src[p.pos] != '[') {
			p.pos = save
			return steps, nil
		}
		st, err := p.segment()
		if err != nil {
			return nil, err
		}
		steps = append(steps, st)
	}
}

func (p *parser) segment() (Step, error) {
	if p.src[p.pos] == '[' {
		sels, err := p.bracket()
		if err != nil {
			return Step{}, err
		}
		if len(sels) == 1 {
			return sels[0], nil
		}
		return Step{Kind: Union, Sel: sels}, nil
	}
	p.pos++ // past '.'
	if p.pos < len(p.src) && p.src[p.pos] == '.' {
		p.pos++
		return p.descendant()
	}
	if p.pos < len(p.src) && p.src[p.pos] == '*' {
		p.pos++
		return wildcardStep(), nil
	}
	name, err := p.shorthandName()
	if err != nil {
		return Step{}, err
	}
	return Step{Kind: Child, Name: name}, nil
}

func (p *parser) descendant() (Step, error) {
	if p.pos >= len(p.src) {
		return Step{}, p.errf("'..' needs a selector")
	}
	switch p.src[p.pos] {
	case '*':
		p.pos++
		return Step{Kind: Descendant, Sel: []Step{wildcardStep()}}, nil
	case '[':
		sels, err := p.bracket()
		if err != nil {
			return Step{}, err
		}
		return Step{Kind: Descendant, Sel: sels}, nil
	default:
		name, err := p.shorthandName()
		if err != nil {
			return Step{}, err
		}
		return Step{Kind: Descendant, Sel: []Step{{Kind: Child, Name: name}}}, nil
	}
}

func wildcardStep() Step {
	return Step{Kind: Wildcard, Lo: 0, Hi: MaxIndex, Stride: 1}
}

// shorthandName scans an RFC 9535 member-name-shorthand: first char
// ALPHA / "_" / non-ASCII, then additionally DIGIT.
func (p *parser) shorthandName() (string, error) {
	start := p.pos
	if p.pos >= len(p.src) || !isNameFirst(p.src[p.pos]) {
		return "", p.errf("invalid member name shorthand")
	}
	for p.pos < len(p.src) && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos], nil
}

func isNameFirst(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameFirst(c) || (c >= '0' && c <= '9')
}

// bracket parses a bracketed selection `[selector *(, selector)]`.
func (p *parser) bracket() ([]Step, error) {
	p.pos++ // past '['
	var sels []Step
	for {
		p.skipWS()
		if p.pos >= len(p.src) {
			return nil, p.errf("unterminated '['")
		}
		st, err := p.selector()
		if err != nil {
			return nil, err
		}
		sels = append(sels, st)
		p.skipWS()
		if p.pos >= len(p.src) {
			return nil, p.errf("unterminated '['")
		}
		switch p.src[p.pos] {
		case ',':
			p.pos++
		case ']':
			p.pos++
			return sels, nil
		default:
			return nil, p.errf("expected ',' or ']', got %q", p.src[p.pos])
		}
	}
}

func (p *parser) selector() (Step, error) {
	switch c := p.src[p.pos]; {
	case c == '*':
		p.pos++
		return wildcardStep(), nil
	case c == '\'' || c == '"':
		name, err := p.stringLiteral(c)
		if err != nil {
			return Step{}, err
		}
		return Step{Kind: Child, Name: name}, nil
	case c == '?':
		return p.filterSelector()
	case c == '-' || c == ':' || (c >= '0' && c <= '9'):
		return p.indexOrSlice()
	case c == ']':
		return Step{}, p.errf("empty bracketed selection")
	default:
		return Step{}, p.errf("unexpected %q after '['", c)
	}
}

// indexOrSlice parses `int`, `[start]:[end]`, or `[start]:[end]:[step]`.
func (p *parser) indexOrSlice() (Step, error) {
	var lo, hi, stride int
	var hasLo, hasHi bool
	stride = 1
	if c := p.src[p.pos]; c == '-' || (c >= '0' && c <= '9') {
		n, err := p.selectorInt()
		if err != nil {
			return Step{}, err
		}
		lo, hasLo = n, true
	}
	p.skipWS()
	if p.pos >= len(p.src) || p.src[p.pos] != ':' {
		if !hasLo {
			return Step{}, p.errf("missing index")
		}
		return Step{Kind: Index, Lo: lo, Hi: lo + 1, Stride: 1}, nil
	}
	p.pos++ // first ':'
	p.skipWS()
	if p.pos < len(p.src) {
		if c := p.src[p.pos]; c == '-' || (c >= '0' && c <= '9') {
			n, err := p.selectorInt()
			if err != nil {
				return Step{}, err
			}
			hi, hasHi = n, true
		}
	}
	p.skipWS()
	if p.pos < len(p.src) && p.src[p.pos] == ':' {
		p.pos++ // second ':'
		p.skipWS()
		if p.pos < len(p.src) {
			if c := p.src[p.pos]; c == '-' || (c >= '0' && c <= '9') {
				n, err := p.selectorInt()
				if err != nil {
					return Step{}, err
				}
				stride = n
			}
		}
	}
	st := Step{Kind: Slice, Lo: lo, Hi: hi, Stride: stride, HasLo: hasLo, HasHi: hasHi}
	normalizeSlice(&st)
	return st, nil
}

// normalizeSlice folds forward, non-negative slices into the automaton's
// Lo/Hi representation (defaults applied, empty ranges collapsed).
// Deferred slices keep their raw bounds for SliceBounds.
func normalizeSlice(st *Step) {
	if st.Stride == 0 {
		// [::0] selects nothing (RFC 9535 §2.3.4.2.2).
		*st = Step{Kind: Slice, Lo: 0, Hi: 0, Stride: 1, HasLo: true, HasHi: true}
		return
	}
	if st.Stride < 0 || (st.HasLo && st.Lo < 0) || (st.HasHi && st.Hi < 0) {
		return
	}
	if !st.HasLo {
		st.Lo = 0
	}
	if !st.HasHi {
		st.Hi = MaxIndex
	}
	if st.Hi < st.Lo {
		st.Lo, st.Hi = 0, 0
	}
	st.HasLo, st.HasHi = true, true
}

// selectorInt parses an RFC 9535 selector integer: optional '-', no
// leading zeros, no negative zero, I-JSON exact range.
func (p *parser) selectorInt() (int, error) {
	start := p.pos
	neg := false
	if p.src[p.pos] == '-' {
		neg = true
		p.pos++
	}
	digits := p.pos
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == digits {
		return 0, p.errf("expected digits after '-'")
	}
	if p.pos-digits > 1 && p.src[digits] == '0' {
		return 0, p.errf("leading zeros are not allowed")
	}
	if neg && p.pos-digits == 1 && p.src[digits] == '0' {
		return 0, p.errf("negative zero is not a valid index")
	}
	n, err := strconv.Atoi(p.src[start:p.pos])
	if err != nil || int64(n) > maxSelectorInt || int64(n) < -maxSelectorInt {
		return 0, p.errf("index out of range: %s", p.src[start:p.pos])
	}
	return n, nil
}

// stringLiteral parses an RFC 9535 quoted string (name selector or
// filter literal). Double-quoted strings escape `"` and single-quoted
// strings escape `'`; both accept \b \f \n \r \t \/ \\ and \uXXXX with
// surrogate pairs. Raw control characters and lone surrogates are
// rejected.
func (p *parser) stringLiteral(q byte) (string, error) {
	p.pos++ // past opening quote
	var sb strings.Builder
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c == q:
			p.pos++
			return sb.String(), nil
		case c == '\\':
			if err := p.escape(q, &sb); err != nil {
				return "", err
			}
		case c < 0x20:
			return "", p.errf("raw control character in string literal")
		default:
			sb.WriteByte(c)
			p.pos++
		}
	}
	return "", p.errf("unterminated string literal")
}

func (p *parser) escape(q byte, sb *strings.Builder) error {
	if p.pos+1 >= len(p.src) {
		p.pos++
		return p.errf("unterminated escape")
	}
	e := p.src[p.pos+1]
	p.pos += 2
	switch e {
	case q:
		sb.WriteByte(q)
	case 'b':
		sb.WriteByte('\b')
	case 'f':
		sb.WriteByte('\f')
	case 'n':
		sb.WriteByte('\n')
	case 'r':
		sb.WriteByte('\r')
	case 't':
		sb.WriteByte('\t')
	case '/':
		sb.WriteByte('/')
	case '\\':
		sb.WriteByte('\\')
	case 'u':
		r, err := p.hex4()
		if err != nil {
			return err
		}
		if r >= 0xDC00 && r <= 0xDFFF {
			return p.errf("lone low surrogate in \\u escape")
		}
		if r >= 0xD800 && r <= 0xDBFF {
			if p.pos+1 >= len(p.src) || p.src[p.pos] != '\\' || p.src[p.pos+1] != 'u' {
				return p.errf("high surrogate not followed by \\u escape")
			}
			p.pos += 2
			lo, err := p.hex4()
			if err != nil {
				return err
			}
			if lo < 0xDC00 || lo > 0xDFFF {
				return p.errf("high surrogate not followed by low surrogate")
			}
			r = 0x10000 + (r-0xD800)<<10 + (lo - 0xDC00)
		}
		sb.WriteRune(r)
	default:
		p.pos -= 2
		return p.errf("invalid escape \\%c", e)
	}
	return nil
}

func (p *parser) hex4() (rune, error) {
	if p.pos+4 > len(p.src) {
		return 0, p.errf("truncated \\u escape")
	}
	var r rune
	for k := 0; k < 4; k++ {
		r <<= 4
		switch d := p.src[p.pos+k]; {
		case d >= '0' && d <= '9':
			r |= rune(d - '0')
		case d >= 'a' && d <= 'f':
			r |= rune(d-'a') + 10
		case d >= 'A' && d <= 'F':
			r |= rune(d-'A') + 10
		default:
			return 0, p.errf("invalid hex digit %q in \\u escape", d)
		}
	}
	p.pos += 4
	return r, nil
}
