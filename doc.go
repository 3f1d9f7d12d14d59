package jsonski

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"jsonski/internal/core"
	"jsonski/internal/jsonpath"
	"jsonski/internal/telemetry"
)

// This file is the on-demand navigation API (ROADMAP item 3, after
// simdjson's On-Demand model): lazy, forward-only traversal of one JSON
// record for callers whose access pattern is not known at compile time.
// Every Get/Index hop runs on the same pull-based Navigator substrate
// the compiled engines use, so unwanted siblings are fast-forwarded
// with the paper's G1–G5 bit-parallel movements, never parsed.
//
// The model is strictly forward-only, like the stream underneath:
// values are consumed in document order, and navigating back to a value
// the cursor has passed fails with ErrCursorPassed instead of
// rescanning. Raw spans alias the input buffer under the same zero-copy
// rules as Sink.Span (see DESIGN §5h).

// ErrCursorPassed reports forward-only misuse: navigating to a value
// the document cursor has already moved past. Test with errors.Is.
var ErrCursorPassed = core.ErrCursorPassed

// ErrNotFound reports a Get/Index target that does not exist at or
// after the cursor in the container scanned. Test with errors.Is.
var ErrNotFound = errors.New("jsonski: value not found")

// Document is a lazily navigated JSON record. Obtain one with Open or
// OpenIndexed; the zero value is usable after Reset/ResetIndexed, which
// re-bind in place without allocating (the steady-state serving path).
//
// A Document is not safe for concurrent use.
type Document struct {
	nav  core.Navigator
	data []byte
	ix   *Index
	tr   *telemetry.Trace // non-nil in explain mode
}

// Open starts on-demand navigation over a single JSON record. The
// buffer is referenced, not copied, and must not be mutated while the
// document is in use.
func Open(data []byte) *Document {
	d := &Document{}
	d.Reset(data)
	return d
}

// OpenIndexed is Open over a prebuilt structural index (BuildIndex,
// IndexCache, or a Catalog entry): navigation reads ix's materialized
// masks instead of classifying words on the fly. The caller must hold
// its reference on ix while the document is in use.
func OpenIndexed(ix *Index) *Document {
	d := &Document{}
	d.ResetIndexed(ix)
	return d
}

// Reset re-binds the document to a fresh record, reusing all internal
// state. Values from before the reset are invalidated.
func (d *Document) Reset(data []byte) {
	d.data = data
	d.ix = nil
	d.nav.Bind(data)
}

// ResetIndexed is Reset over a prebuilt structural index.
func (d *Document) ResetIndexed(ix *Index) {
	d.data = ix.Data()
	d.ix = ix
	d.nav.BindIndexed(ix.ix)
}

// Root returns the record's root value.
func (d *Document) Root() Value {
	nv, err := d.nav.Root()
	if err != nil {
		return Value{d: d, err: err}
	}
	return Value{d: d, nv: nv}
}

// Get is Root().Get(name).
func (d *Document) Get(name string) Value { return d.Root().Get(name) }

// Index is Root().Index(i).
func (d *Document) Index(i int) Value { return d.Root().Index(i) }

// Lookup navigates a path of segments from the root: a segment of
// decimal digits selects an array element, anything else an object
// attribute. Segment lookahead supplies the engines' G1 type expectation
// for each hop — exactly what compiling the path as a JSONPath query
// would — so runs of wrong-typed siblings are skipped bit-parallel.
func (d *Document) Lookup(path ...string) Value {
	v := d.Root()
	for i, seg := range path {
		expected := jsonpath.Unknown
		if i+1 < len(path) {
			if _, isIdx := segIndex(path[i+1]); isIdx {
				expected = jsonpath.Array
			} else {
				expected = jsonpath.Object
			}
		}
		if idx, isIdx := segIndex(seg); isIdx {
			v = v.Index(idx)
		} else {
			v = v.get(seg, expected)
		}
	}
	return v
}

// ParseDotPath splits an on-demand access path into Lookup segments:
// dots separate attribute names, and a name may carry [n] element
// suffixes — "store.book[2].title" becomes ["store", "book", "2",
// "title"]. A bare leading index like "[0].id" addresses a root array.
// Attribute names that consist only of digits must use the dotted form
// the hard way: there is no escaping, this is a convenience syntax for
// CLI flags and URLs, not a query language (use Compile for that).
func ParseDotPath(path string) ([]string, error) {
	var segs []string
	for _, part := range strings.Split(path, ".") {
		name := part
		var suffixes []string
		for {
			open := strings.IndexByte(name, '[')
			if open < 0 {
				break
			}
			closeIdx := strings.IndexByte(name[open:], ']')
			if closeIdx < 0 {
				return nil, fmt.Errorf("jsonski: path %q: unclosed [ in %q", path, part)
			}
			idx := name[open+1 : open+closeIdx]
			if _, ok := segIndex(idx); !ok {
				return nil, fmt.Errorf("jsonski: path %q: bad index %q", path, idx)
			}
			suffixes = append(suffixes, idx)
			name = name[:open] + name[open+closeIdx+1:]
		}
		if name != "" {
			segs = append(segs, name)
		}
		segs = append(segs, suffixes...)
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("jsonski: path %q: no segments", path)
	}
	return segs, nil
}

// segIndex reports whether seg is a non-negative decimal element index.
func segIndex(seg string) (int, bool) {
	if seg == "" {
		return 0, false
	}
	for i := 0; i < len(seg); i++ {
		if seg[i] < '0' || seg[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(seg)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Close finishes the record: open containers are closed and untouched
// remainders skipped, all with charged fast-forward movements, so that
// Stats carries the full ScannedBytes + Σ SkippedBytes == InputBytes
// cost attribution over the record.
func (d *Document) Close() error { return d.nav.Finish() }

// Stats snapshots the navigation's fast-forward accounting since the
// last bind (paper Table 6; Matches counts nothing here — navigation
// has no match stream). In explain mode the snapshot carries the
// movement log via Stats.Trace.
func (d *Document) Stats() Stats {
	var out Stats
	out.add(d.nav.Stats())
	if d.tr != nil {
		out.trace = publicTrace(d.tr)
	}
	return out
}

// Explain turns on explain-mode recording, as RunExplain does for
// compiled queries: subsequent navigation logs up to maxEvents
// fast-forward movements (DefaultTraceEvents when maxEvents <= 0),
// retrievable via Stats().Trace(). The log accumulates across
// Reset/ResetIndexed until NoExplain or a fresh Explain call.
func (d *Document) Explain(maxEvents int) {
	d.tr = telemetry.NewTrace(maxEvents)
	d.nav.SetTrace(d.tr)
}

// NoExplain turns explain-mode recording off.
func (d *Document) NoExplain() {
	d.tr = nil
	d.nav.SetTrace(nil)
}

// Value is one lazily navigated JSON value. Values are cheap handles:
// navigation state lives in the Document, and errors stick — navigating
// from a failed Value returns the same error, so a chain like
// doc.Get("user").Index(3).Get("name") needs a single check at the end.
type Value struct {
	d   *Document
	nv  core.NavValue
	err error
}

// Err returns the sticky navigation error, nil for a navigable value.
// A value from before its document's latest Reset or ResetIndexed
// returns an error wrapping ErrCursorPassed, as does every method on it.
func (v Value) Err() error {
	if v.err == nil && v.d != nil && !v.d.nav.Live(v.nv) {
		return core.ErrPreviousBind
	}
	return v.err
}

// Exists reports whether navigation reached this value and the value
// belongs to its document's current binding.
func (v Value) Exists() bool { return v.d != nil && v.Err() == nil }

// Kind peeks at the value's first byte without consuming anything; the
// classification shares Match.Kind's Kind type.
func (v Value) Kind() Kind {
	if !v.Exists() || v.nv.Pos >= len(v.d.data) {
		return KindInvalid
	}
	switch v.d.data[v.nv.Pos] {
	case '{':
		return KindObject
	case '[':
		return KindArray
	case '"':
		return KindString
	case 't', 'f':
		return KindBool
	case 'n':
		return KindNull
	default:
		return KindNumber
	}
}

// IsNull reports whether the value is the JSON literal null, without
// consuming it.
func (v Value) IsNull() bool { return v.Kind() == KindNull }

// Get scans this object forward for the named attribute, fast-forwarding
// over unwanted siblings (G2) without parsing them. The scan starts at
// the cursor: attributes before an earlier navigation are behind the
// forward-only cursor and report ErrNotFound (the document never
// rescans). Names compare byte-wise against the raw attribute name,
// escapes intact.
func (v Value) Get(name string) Value { return v.get(name, jsonpath.Unknown) }

func (v Value) get(name string, expected jsonpath.ValueType) Value {
	if v.Err() != nil {
		return v
	}
	if v.d == nil {
		return Value{err: errors.New("jsonski: zero Value")}
	}
	nv, found, err := v.d.nav.Field(v.nv, name, expected)
	if err != nil {
		return Value{d: v.d, err: err}
	}
	if !found {
		return Value{d: v.d, err: fmt.Errorf("%w: attribute %q", ErrNotFound, name)}
	}
	return Value{d: v.d, nv: nv}
}

// Index positions on element i of this array, skipping the elements
// between the cursor and i en bloc (G5). Elements at or before an
// already consumed position report ErrCursorPassed.
func (v Value) Index(i int) Value {
	if v.Err() != nil {
		return v
	}
	if v.d == nil {
		return Value{err: errors.New("jsonski: zero Value")}
	}
	nv, found, err := v.d.nav.Elem(v.nv, i)
	if err != nil {
		return Value{d: v.d, err: err}
	}
	if !found {
		return Value{d: v.d, err: fmt.Errorf("%w: element %d", ErrNotFound, i)}
	}
	return Value{d: v.d, nv: nv}
}

// Raw consumes the value and returns its span of the input buffer —
// zero-copy, whitespace-trimmed, exactly the bytes a compiled query
// would emit for it (G3). The slice aliases the document's buffer under
// the same ownership rules as Sink.Span: valid until the buffer is
// recycled or mutated; copy it to retain it.
func (v Value) Raw() ([]byte, error) {
	if err := v.Err(); err != nil {
		return nil, err
	}
	if v.d == nil {
		return nil, errors.New("jsonski: zero Value")
	}
	start, end, err := v.d.nav.Raw(v.nv)
	if err != nil {
		return nil, err
	}
	return v.d.data[start:end], nil
}

// String decodes the value as a JSON string (consuming it).
func (v Value) String() (string, error) {
	raw, err := v.Raw()
	if err != nil {
		return "", err
	}
	if len(raw) < 2 || raw[0] != '"' {
		return "", fmt.Errorf("jsonski: value %s is not a string", v.Kind())
	}
	return Unquote(raw)
}

// Int decodes the value as an int64 (consuming it).
func (v Value) Int() (int64, error) {
	raw, err := v.Raw()
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(string(raw), 10, 64)
}

// Float decodes the value as a float64 (consuming it).
func (v Value) Float() (float64, error) {
	raw, err := v.Raw()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(string(raw), 64)
}

// Bool decodes the value as a JSON boolean (consuming it).
func (v Value) Bool() (bool, error) {
	raw, err := v.Raw()
	if err != nil {
		return false, err
	}
	switch string(raw) {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, fmt.Errorf("jsonski: value %q is not a boolean", raw)
}

// Unmarshal consumes the value and decodes its raw span into out with
// encoding/json — partial struct decoding without materializing the
// rest of the record.
func (v Value) Unmarshal(out any) error {
	raw, err := v.Raw()
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// Fields iterates this object's attributes from the cursor onward in
// document order. The callback may navigate into child; anything it
// leaves unconsumed is fast-forwarded over before the scan continues.
// Returning false stops the iteration (the object stays open for
// further forward navigation). The name bytes alias the input and are
// only valid inside the call.
func (v Value) Fields(fn func(name []byte, child Value) bool) error {
	if err := v.Err(); err != nil {
		return err
	}
	if v.d == nil {
		return errors.New("jsonski: zero Value")
	}
	return v.d.nav.Fields(v.nv, func(name []byte, nv core.NavValue) (bool, error) {
		return fn(name, Value{d: v.d, nv: nv}), nil
	})
}

// Elements iterates this array's elements from the cursor onward; the
// semantics mirror Fields.
func (v Value) Elements(fn func(i int, child Value) bool) error {
	if err := v.Err(); err != nil {
		return err
	}
	if v.d == nil {
		return errors.New("jsonski: zero Value")
	}
	return v.d.nav.Elems(v.nv, func(i int, nv core.NavValue) (bool, error) {
		return fn(i, Value{d: v.d, nv: nv}), nil
	})
}
