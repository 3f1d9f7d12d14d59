// Filter selectors (RFC 9535 §2.3.5): the expression AST, the
// recursive-descent grammar (logical-or → logical-and → basic-expr),
// and the comparison semantics shared by every evaluator — the
// streaming engine's probe planner, the deferred tail, and the DOM
// reference walker all funnel through Compare/DecodeValue so a filter means the
// same thing on every path through the system.
package jsonpath

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
)

// FilterOp discriminates filter expression nodes.
type FilterOp uint8

// Filter expression node kinds.
const (
	FilterOr      FilterOp = iota // Kids, n-ary
	FilterAnd                     // Kids, n-ary
	FilterNot                     // Kids[0]
	FilterCompare                 // Left Cmp Right
	FilterExists                  // Query
)

// CompareOp is a comparison operator (RFC 9535 §2.3.5.2.2).
type CompareOp uint8

// Comparison operators.
const (
	CmpEQ CompareOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// String implements fmt.Stringer.
func (op CompareOp) String() string {
	switch op {
	case CmpEQ:
		return "=="
	case CmpNE:
		return "!="
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	default:
		return ">="
	}
}

// FilterExpr is one node of a parsed filter expression.
type FilterExpr struct {
	Op    FilterOp
	Kids  []*FilterExpr // FilterOr/FilterAnd operands, FilterNot's single child
	Cmp   CompareOp     // FilterCompare
	Left  Operand       // FilterCompare
	Right Operand       // FilterCompare
	Query *SubQuery     // FilterExists
}

// SubQuery is a query embedded in a filter, relative (@) or absolute ($).
type SubQuery struct {
	Absolute bool
	Path     *Path
}

// Operand is one side of a comparison: a literal or a singular query.
type Operand struct {
	IsLiteral bool
	Lit       Literal
	Query     *SubQuery // singular: child and index steps only
}

// LitKind discriminates filter literals.
type LitKind uint8

// Literal kinds.
const (
	LitNumber LitKind = iota
	LitString
	LitBool
	LitNull
)

// Literal is a JSON literal in a filter expression.
type Literal struct {
	Kind LitKind
	Num  float64
	Str  string
	Bool bool
}

// Singular reports whether the sub-query is a singular query
// (RFC 9535 §2.3.5.1): every segment a single name or index selector.
func (q *SubQuery) Singular() bool {
	for _, st := range q.Path.Steps {
		if st.Kind != Child && st.Kind != Index {
			return false
		}
	}
	return true
}

// String renders the sub-query.
func (q *SubQuery) String() string {
	var sb strings.Builder
	if q.Absolute {
		sb.WriteByte('$')
	} else {
		sb.WriteByte('@')
	}
	for _, st := range q.Path.Steps {
		writeStep(&sb, st)
	}
	return sb.String()
}

func writeStep(sb *strings.Builder, st Step) {
	switch st.Kind {
	case Child:
		sb.WriteString("['")
		sb.WriteString(strings.ReplaceAll(strings.ReplaceAll(st.Name, `\`, `\\`), `'`, `\'`))
		sb.WriteString("']")
	case Index:
		sb.WriteByte('[')
		sb.WriteString(strconv.Itoa(st.Lo))
		sb.WriteByte(']')
	case Slice:
		sb.WriteByte('[')
		if st.HasLo {
			sb.WriteString(strconv.Itoa(st.Lo))
		}
		sb.WriteByte(':')
		if st.HasHi && st.Hi != MaxIndex {
			sb.WriteString(strconv.Itoa(st.Hi))
		}
		if st.Stride != 1 {
			sb.WriteByte(':')
			sb.WriteString(strconv.Itoa(st.Stride))
		}
		sb.WriteByte(']')
	case Wildcard:
		sb.WriteString("[*]")
	case Filter:
		sb.WriteString("[?")
		sb.WriteString(st.Filter.String())
		sb.WriteByte(']')
	case Union:
		sb.WriteByte('[')
		for i, s := range st.Sel {
			if i > 0 {
				sb.WriteByte(',')
			}
			var inner strings.Builder
			writeStep(&inner, s)
			part := inner.String()
			sb.WriteString(strings.TrimSuffix(strings.TrimPrefix(part, "["), "]"))
		}
		sb.WriteByte(']')
	case Descendant:
		sb.WriteString("..")
		sb.WriteByte('[')
		for i, s := range st.Sel {
			if i > 0 {
				sb.WriteByte(',')
			}
			var inner strings.Builder
			writeStep(&inner, s)
			part := inner.String()
			sb.WriteString(strings.TrimSuffix(strings.TrimPrefix(part, "["), "]"))
		}
		sb.WriteByte(']')
	}
}

// String renders the expression in parseable form.
func (f *FilterExpr) String() string {
	var sb strings.Builder
	f.write(&sb)
	return sb.String()
}

func (f *FilterExpr) write(sb *strings.Builder) {
	switch f.Op {
	case FilterOr, FilterAnd:
		op := " || "
		if f.Op == FilterAnd {
			op = " && "
		}
		for i, k := range f.Kids {
			if i > 0 {
				sb.WriteString(op)
			}
			if k.Op == FilterOr || (f.Op == FilterOr && k.Op == FilterAnd) {
				sb.WriteByte('(')
				k.write(sb)
				sb.WriteByte(')')
			} else {
				k.write(sb)
			}
		}
	case FilterNot:
		sb.WriteString("!(")
		f.Kids[0].write(sb)
		sb.WriteByte(')')
	case FilterCompare:
		f.Left.write(sb)
		sb.WriteByte(' ')
		sb.WriteString(f.Cmp.String())
		sb.WriteByte(' ')
		f.Right.write(sb)
	case FilterExists:
		sb.WriteString(f.Query.String())
	}
}

func (o Operand) write(sb *strings.Builder) {
	if !o.IsLiteral {
		sb.WriteString(o.Query.String())
		return
	}
	switch o.Lit.Kind {
	case LitNumber:
		sb.WriteString(strconv.FormatFloat(o.Lit.Num, 'g', -1, 64))
	case LitString:
		sb.WriteByte('\'')
		sb.WriteString(strings.ReplaceAll(strings.ReplaceAll(o.Lit.Str, `\`, `\\`), `'`, `\'`))
		sb.WriteByte('\'')
	case LitBool:
		sb.WriteString(strconv.FormatBool(o.Lit.Bool))
	default:
		sb.WriteString("null")
	}
}

// HasAbsolute reports whether the expression embeds any absolute ($)
// query — directly or inside a nested filter. Such expressions need the
// document root, so a probe must materialize the record's DOM.
func (f *FilterExpr) HasAbsolute() bool {
	abs := false
	var walkQ func(q *SubQuery)
	var walk func(e *FilterExpr)
	walkQ = func(q *SubQuery) {
		if q.Absolute {
			abs = true
			return
		}
		for _, st := range q.Path.Steps {
			if st.Kind == Filter {
				walk(st.Filter)
			}
			for _, s := range st.Sel {
				if s.Kind == Filter {
					walk(s.Filter)
				}
			}
		}
	}
	walk = func(e *FilterExpr) {
		switch e.Op {
		case FilterOr, FilterAnd, FilterNot:
			for _, k := range e.Kids {
				walk(k)
			}
		case FilterCompare:
			for _, o := range []Operand{e.Left, e.Right} {
				if !o.IsLiteral {
					walkQ(o.Query)
				}
			}
		case FilterExists:
			walkQ(e.Query)
		}
	}
	walk(f)
	return abs
}

// StepsHaveAbsolute reports whether any filter among the steps (including
// filters nested in union or descendant selector lists) embeds an
// absolute ($) reference. Evaluators of such steps need the enclosing
// record's document, not just the value under evaluation.
func StepsHaveAbsolute(steps []Step) bool {
	for _, st := range steps {
		if st.Filter != nil && st.Filter.HasAbsolute() {
			return true
		}
		if len(st.Sel) > 0 && StepsHaveAbsolute(st.Sel) {
			return true
		}
	}
	return false
}

// SingularChildRefs collects the member-name chains the expression
// reads via relative singular child-only queries (`@.a.b`). eligible is
// true when *every* embedded query is such a chain — the condition for
// the skip-eligible probe plan, which answers the predicate from typed
// child probes without parsing the whole candidate. Absolute queries,
// indexes, wildcards, slices, nested filters, and chains longer than
// MaxStreamSteps (a probe is a streaming run of the chain) force a full
// parse.
func (f *FilterExpr) SingularChildRefs() (refs [][]string, eligible bool) {
	eligible = true
	var walk func(e *FilterExpr)
	addQuery := func(q *SubQuery) {
		if q.Absolute {
			eligible = false
			return
		}
		if len(q.Path.Steps) > MaxStreamSteps {
			eligible = false
			return
		}
		chain := make([]string, 0, len(q.Path.Steps))
		for _, st := range q.Path.Steps {
			if st.Kind != Child {
				eligible = false
				return
			}
			chain = append(chain, st.Name)
		}
		if len(chain) == 0 {
			// Bare `@` needs the candidate value itself.
			eligible = false
			return
		}
		refs = append(refs, chain)
	}
	walk = func(e *FilterExpr) {
		switch e.Op {
		case FilterOr, FilterAnd, FilterNot:
			for _, k := range e.Kids {
				walk(k)
			}
		case FilterCompare:
			for _, o := range []Operand{e.Left, e.Right} {
				if !o.IsLiteral {
					addQuery(o.Query)
				}
			}
		case FilterExists:
			addQuery(e.Query)
		}
	}
	walk(f)
	return refs, eligible
}

// ---- filter grammar ----

func (p *parser) filterSelector() (Step, error) {
	p.pos++ // past '?'
	p.skipWS()
	e, err := p.logicalOr()
	if err != nil {
		return Step{}, err
	}
	return Step{Kind: Filter, Filter: e}, nil
}

func (p *parser) logicalOr() (*FilterExpr, error) {
	left, err := p.logicalAnd()
	if err != nil {
		return nil, err
	}
	kids := []*FilterExpr{left}
	for {
		save := p.pos
		p.skipWS()
		if !strings.HasPrefix(p.src[p.pos:], "||") {
			p.pos = save
			break
		}
		p.pos += 2
		p.skipWS()
		next, err := p.logicalAnd()
		if err != nil {
			return nil, err
		}
		kids = append(kids, next)
	}
	if len(kids) == 1 {
		return left, nil
	}
	return &FilterExpr{Op: FilterOr, Kids: kids}, nil
}

func (p *parser) logicalAnd() (*FilterExpr, error) {
	left, err := p.basicExpr()
	if err != nil {
		return nil, err
	}
	kids := []*FilterExpr{left}
	for {
		save := p.pos
		p.skipWS()
		if !strings.HasPrefix(p.src[p.pos:], "&&") {
			p.pos = save
			break
		}
		p.pos += 2
		p.skipWS()
		next, err := p.basicExpr()
		if err != nil {
			return nil, err
		}
		kids = append(kids, next)
	}
	if len(kids) == 1 {
		return left, nil
	}
	return &FilterExpr{Op: FilterAnd, Kids: kids}, nil
}

func (p *parser) basicExpr() (*FilterExpr, error) {
	p.skipWS()
	if p.pos >= len(p.src) {
		return nil, p.errf("unterminated filter expression")
	}
	switch c := p.src[p.pos]; {
	case c == '!':
		p.pos++
		p.skipWS()
		var inner *FilterExpr
		var err error
		if p.pos < len(p.src) && p.src[p.pos] == '(' {
			inner, err = p.parenExpr()
		} else {
			inner, err = p.testExpr()
		}
		if err != nil {
			return nil, err
		}
		if op, ok, err := p.peekCompareOp(); err != nil {
			return nil, err
		} else if ok {
			return nil, p.errf("negated expression cannot be compared with %s", op)
		}
		return &FilterExpr{Op: FilterNot, Kids: []*FilterExpr{inner}}, nil
	case c == '(':
		e, err := p.parenExpr()
		if err != nil {
			return nil, err
		}
		if op, ok, err := p.peekCompareOp(); err != nil {
			return nil, err
		} else if ok {
			return nil, p.errf("parenthesized expression cannot be compared with %s", op)
		}
		return e, nil
	case c == '@' || c == '$':
		q, err := p.filterQuery()
		if err != nil {
			return nil, err
		}
		op, ok, err := p.peekCompareOp()
		if err != nil {
			return nil, err
		}
		if !ok {
			return &FilterExpr{Op: FilterExists, Query: q}, nil
		}
		if !q.Singular() {
			return nil, p.errf("comparison operand must be a singular query")
		}
		right, err := p.comparable()
		if err != nil {
			return nil, err
		}
		return &FilterExpr{Op: FilterCompare, Cmp: op, Left: Operand{Query: q}, Right: right}, nil
	default:
		lit, err := p.literal()
		if err != nil {
			return nil, err
		}
		op, ok, err := p.peekCompareOp()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, p.errf("literal must be part of a comparison")
		}
		right, err := p.comparable()
		if err != nil {
			return nil, err
		}
		return &FilterExpr{Op: FilterCompare, Cmp: op, Left: Operand{IsLiteral: true, Lit: lit}, Right: right}, nil
	}
}

func (p *parser) parenExpr() (*FilterExpr, error) {
	p.pos++ // past '('
	p.skipWS()
	e, err := p.logicalOr()
	if err != nil {
		return nil, err
	}
	p.skipWS()
	if p.pos >= len(p.src) || p.src[p.pos] != ')' {
		return nil, p.errf("expected ')'")
	}
	p.pos++
	return e, nil
}

func (p *parser) testExpr() (*FilterExpr, error) {
	if p.pos >= len(p.src) {
		return nil, p.errf("unterminated filter expression")
	}
	if c := p.src[p.pos]; c != '@' && c != '$' {
		return nil, p.errf("expected '@', '$', or '(' after '!'")
	}
	q, err := p.filterQuery()
	if err != nil {
		return nil, err
	}
	return &FilterExpr{Op: FilterExists, Query: q}, nil
}

func (p *parser) filterQuery() (*SubQuery, error) {
	abs := p.src[p.pos] == '$'
	start := p.pos
	p.pos++
	steps, err := p.segments()
	if err != nil {
		return nil, err
	}
	inferTypes(steps)
	return &SubQuery{Absolute: abs, Path: &Path{Steps: steps, src: p.src[start:p.pos]}}, nil
}

// peekCompareOp consumes a comparison operator if one follows (after
// whitespace); a bare '=' is a syntax error rather than a silent miss.
func (p *parser) peekCompareOp() (CompareOp, bool, error) {
	save := p.pos
	p.skipWS()
	rest := p.src[p.pos:]
	switch {
	case strings.HasPrefix(rest, "=="):
		p.pos += 2
		return CmpEQ, true, nil
	case strings.HasPrefix(rest, "!="):
		p.pos += 2
		return CmpNE, true, nil
	case strings.HasPrefix(rest, "<="):
		p.pos += 2
		return CmpLE, true, nil
	case strings.HasPrefix(rest, ">="):
		p.pos += 2
		return CmpGE, true, nil
	case strings.HasPrefix(rest, "<"):
		p.pos++
		return CmpLT, true, nil
	case strings.HasPrefix(rest, ">"):
		p.pos++
		return CmpGT, true, nil
	case strings.HasPrefix(rest, "="):
		return 0, false, p.errf("invalid comparison operator '='; use '=='")
	default:
		p.pos = save
		return 0, false, nil
	}
}

func (p *parser) comparable() (Operand, error) {
	p.skipWS()
	if p.pos >= len(p.src) {
		return Operand{}, p.errf("missing comparison operand")
	}
	switch c := p.src[p.pos]; {
	case c == ']' || c == ')' || c == ',':
		return Operand{}, p.errf("missing comparison operand")
	case c == '@' || c == '$':
		q, err := p.filterQuery()
		if err != nil {
			return Operand{}, err
		}
		if !q.Singular() {
			return Operand{}, p.errf("comparison operand must be a singular query")
		}
		return Operand{Query: q}, nil
	default:
		lit, err := p.literal()
		if err != nil {
			return Operand{}, err
		}
		return Operand{IsLiteral: true, Lit: lit}, nil
	}
}

func (p *parser) literal() (Literal, error) {
	if p.pos >= len(p.src) {
		return Literal{}, p.errf("unterminated filter expression")
	}
	switch c := p.src[p.pos]; {
	case c == '\'' || c == '"':
		s, err := p.stringLiteral(c)
		if err != nil {
			return Literal{}, err
		}
		return Literal{Kind: LitString, Str: s}, nil
	case c == '-' || (c >= '0' && c <= '9'):
		return p.numberLiteral()
	case isNameFirst(c):
		start := p.pos
		for p.pos < len(p.src) && isNameChar(p.src[p.pos]) {
			p.pos++
		}
		word := p.src[start:p.pos]
		switch word {
		case "true":
			return Literal{Kind: LitBool, Bool: true}, nil
		case "false":
			return Literal{Kind: LitBool, Bool: false}, nil
		case "null":
			return Literal{Kind: LitNull}, nil
		}
		if p.pos < len(p.src) && p.src[p.pos] == '(' {
			p.pos = start
			return Literal{}, p.errf("function extensions are not supported: %s()", word)
		}
		p.pos = start
		return Literal{}, p.errf("unexpected %q in filter expression", word)
	default:
		return Literal{}, p.errf("unexpected %q in filter expression", c)
	}
}

// numberLiteral parses an RFC 9535 number: int or -0, optional frac,
// optional exp. Leading zeros are rejected; -0 and fractions are legal
// here (unlike selector integers).
func (p *parser) numberLiteral() (Literal, error) {
	start := p.pos
	if p.src[p.pos] == '-' {
		p.pos++
	}
	digits := p.pos
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == digits {
		return Literal{}, p.errf("expected digits after '-'")
	}
	if p.pos-digits > 1 && p.src[digits] == '0' {
		return Literal{}, p.errf("leading zeros are not allowed")
	}
	if p.pos < len(p.src) && p.src[p.pos] == '.' {
		p.pos++
		fd := p.pos
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		if p.pos == fd {
			return Literal{}, p.errf("expected digits after '.'")
		}
	}
	if p.pos < len(p.src) && (p.src[p.pos] == 'e' || p.src[p.pos] == 'E') {
		p.pos++
		if p.pos < len(p.src) && (p.src[p.pos] == '+' || p.src[p.pos] == '-') {
			p.pos++
		}
		ed := p.pos
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		if p.pos == ed {
			return Literal{}, p.errf("expected digits in exponent")
		}
	}
	f, err := strconv.ParseFloat(p.src[start:p.pos], 64)
	if err != nil {
		return Literal{}, p.errf("bad number %q", p.src[start:p.pos])
	}
	return Literal{Kind: LitNumber, Num: f}, nil
}

// ---- comparison semantics ----

// CmpVal is a resolved comparable: Missing models the empty nodelist
// (RFC 9535 "Nothing"); otherwise V holds nil, bool, float64, string,
// []any, or map[string]any as decoded by DecodeValue.
type CmpVal struct {
	Missing bool
	V       any
}

// LitVal converts a parsed literal to a comparable value.
func LitVal(l Literal) CmpVal {
	switch l.Kind {
	case LitNumber:
		return CmpVal{V: l.Num}
	case LitString:
		return CmpVal{V: l.Str}
	case LitBool:
		return CmpVal{V: l.Bool}
	default:
		return CmpVal{V: nil}
	}
}

// DecodeValue decodes a raw JSON value span into a comparable. Scalars
// take a fast path; containers (needed only for ==/!=) go through
// encoding/json. Malformed input decodes to Missing, which compares
// like an empty nodelist.
func DecodeValue(raw []byte) CmpVal {
	raw = bytes.TrimSpace(raw)
	if len(raw) == 0 {
		return CmpVal{Missing: true}
	}
	switch raw[0] {
	case '"':
		if len(raw) >= 2 && raw[len(raw)-1] == '"' {
			inner := raw[1 : len(raw)-1]
			if bytes.IndexByte(inner, '\\') < 0 {
				return CmpVal{V: string(inner)}
			}
			var s string
			if err := json.Unmarshal(raw, &s); err != nil {
				return CmpVal{Missing: true}
			}
			return CmpVal{V: s}
		}
		return CmpVal{Missing: true}
	case 't':
		if string(raw) == "true" {
			return CmpVal{V: true}
		}
	case 'f':
		if string(raw) == "false" {
			return CmpVal{V: false}
		}
	case 'n':
		if string(raw) == "null" {
			return CmpVal{V: nil}
		}
	case '{', '[':
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			return CmpVal{Missing: true}
		}
		return CmpVal{V: v}
	default:
		if f, err := strconv.ParseFloat(string(raw), 64); err == nil {
			return CmpVal{V: f}
		}
	}
	return CmpVal{Missing: true}
}

// Compare applies a comparison operator under RFC 9535 §2.3.5.2.2:
// Missing == Missing, Missing compares less-than nothing, == is deep
// equality with numeric unification, and < is defined only on number
// pairs and string pairs.
func Compare(op CompareOp, a, b CmpVal) bool {
	switch op {
	case CmpEQ:
		return cmpEqual(a, b)
	case CmpNE:
		return !cmpEqual(a, b)
	case CmpLT:
		return cmpLess(a, b)
	case CmpLE:
		return cmpLess(a, b) || cmpEqual(a, b)
	case CmpGT:
		return cmpLess(b, a)
	default: // CmpGE
		return cmpLess(b, a) || cmpEqual(a, b)
	}
}

func cmpEqual(a, b CmpVal) bool {
	if a.Missing || b.Missing {
		return a.Missing && b.Missing
	}
	return deepEqual(a.V, b.V)
}

func cmpLess(a, b CmpVal) bool {
	if a.Missing || b.Missing {
		return false
	}
	switch av := a.V.(type) {
	case float64:
		bv, ok := b.V.(float64)
		return ok && av < bv
	case string:
		bv, ok := b.V.(string)
		return ok && av < bv
	}
	return false
}

func deepEqual(a, b any) bool {
	switch av := a.(type) {
	case nil:
		return b == nil
	case bool:
		bv, ok := b.(bool)
		return ok && av == bv
	case float64:
		bv, ok := b.(float64)
		return ok && av == bv
	case string:
		bv, ok := b.(string)
		return ok && av == bv
	case []any:
		bv, ok := b.([]any)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if !deepEqual(av[i], bv[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok || len(av) != len(bv) {
			return false
		}
		for k, v := range av {
			w, present := bv[k]
			if !present || !deepEqual(v, w) {
				return false
			}
		}
		return true
	}
	return false
}
