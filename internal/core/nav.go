package core

import (
	"errors"
	"fmt"

	"jsonski/internal/fastforward"
	"jsonski/internal/jsonpath"
	"jsonski/internal/stream"
	"jsonski/internal/telemetry"
)

// Navigator is the execution substrate every engine runs on: it owns the
// stream position, the fast-forward dispatcher (and with it the Table 6
// group counters), recursion accounting, and the explain-trace binding.
// The push-based recursive-descent driver (driver.go) borrows it through
// cursor; the pull-based on-demand API (jsonski.Document) drives it
// directly through Root/Field/Elem/Raw below.
//
// Pull-mode navigation is strictly forward-only, like the stream it
// wraps: every movement is one of the paper's Table 1 fast-forward
// functions, charged to the same group a compiled query would charge
// (G1 for type-filtered attribute scans, G2 for unwanted siblings, G3
// for output, G4/G5 for container closes and element range skips).
// Navigating a value the cursor has already moved past fails with
// ErrCursorPassed instead of rescanning.
//
// A Navigator is reusable across binds but not safe for concurrent use.
type Navigator struct {
	s  *stream.Stream
	ff *fastforward.FF

	depth int

	// rootStart/rootEnd delimit the record under evaluation within
	// s.Data() — the whole buffer for plain runs, the window for
	// RunIndexedWindow. Filter probes resolve absolute ($) references
	// against this span.
	rootStart, rootEnd int

	// trace, when non-nil, receives one event per fast-forward movement
	// plus the policy's state at each descent (explain mode). The
	// disabled path is a nil check per object/array frame.
	trace *telemetry.Trace

	// Pull-mode state: the stack of containers opened by Field/Elem
	// descent, the root value handed out by Root, and the bind
	// generation that invalidates NavValues across re-binds.
	frames    []navFrame
	root      NavValue
	rootGiven bool
	gen       uint32

	// lastRaw* memoize the most recent successful Raw so repeated reads
	// of one value (Raw then a scalar decode of the same NavValue) stay
	// answerable after its span was consumed. A byte position starts at
	// most one value per bind, so (gen, Pos) identifies the value.
	lastRawPos, lastRawStart, lastRawEnd int
}

// navFrame is one open container on the pull-mode descent stack.
type navFrame struct {
	start int                // byte offset of the container's opener
	kind  jsonpath.ValueType // Object or Array

	// pending records the last child value handed out of this frame:
	// its start position, type, and (for arrays) element index. It is
	// never cleared — whether the child has been consumed is decided by
	// comparing the cursor against it (the cursor only moves forward).
	pending   int
	pendingVT jsonpath.ValueType
	elemIdx   int
}

// ErrCursorPassed reports forward-only misuse: a navigation target the
// shared stream cursor has already moved past. The on-demand API never
// rescans; re-open the document to revisit earlier values.
var ErrCursorPassed = errors.New("on-demand: cursor already passed value")

// ErrPreviousBind wraps ErrCursorPassed for a NavValue handed out before
// the navigator's latest bind: its offsets point into the old buffer.
var ErrPreviousBind = fmt.Errorf("%w: value from a previous bind", ErrCursorPassed)

// NavValue identifies one JSON value the navigator handed out: its
// first byte, its syntactic type, and the descent depth it lives at.
// A NavValue stays navigable only while the cursor has not moved past
// it; re-binding the navigator invalidates all previously handed-out
// values.
type NavValue struct {
	Pos   int
	VType jsonpath.ValueType

	depth int
	gen   uint32
}

// Live reports whether v was handed out since the latest bind. Every
// navigation answers a value that is not live with ErrPreviousBind.
func (n *Navigator) Live(v NavValue) bool { return v.gen == n.gen }

// SetTrace binds (or with nil unbinds) an explain trace.
func (n *Navigator) SetTrace(t *telemetry.Trace) {
	n.trace = t
	if n.ff != nil {
		n.ff.Trace = t
	}
}

// prepare (re)binds the navigator to a fresh buffer, classifying words
// lazily as the run advances.
func (n *Navigator) prepare(data []byte) {
	if n.s == nil {
		n.s = stream.New(data)
		n.ff = fastforward.New(n.s)
	} else {
		n.s.Reset(data)
		n.ff.Reset(n.s)
	}
	n.rootStart, n.rootEnd = 0, len(data)
	n.finishBind()
}

// prepareIndexed (re)binds the navigator to a prebuilt structural index;
// the stream borrows ix's materialized masks. The caller must hold a
// reference on ix for the duration of the run.
func (n *Navigator) prepareIndexed(ix *stream.Index) {
	if n.s == nil {
		n.s = stream.NewIndexed(ix)
		n.ff = fastforward.New(n.s)
	} else {
		n.s.ResetIndexed(ix)
		n.ff.Reset(n.s)
	}
	n.rootStart, n.rootEnd = 0, ix.Len()
	n.finishBind()
}

// prepareWindow is prepareIndexed restricted to the single JSON value in
// [lo, hi) of ix's buffer, such as one record of an indexed NDJSON
// corpus. Positions stay absolute within the full buffer.
func (n *Navigator) prepareWindow(ix *stream.Index, lo, hi int) {
	if n.s == nil {
		n.s = stream.NewIndexedWindow(ix, lo, hi)
		n.ff = fastforward.New(n.s)
	} else {
		n.s.ResetIndexedWindow(ix, lo, hi)
		n.ff.Reset(n.s)
	}
	n.rootStart, n.rootEnd = lo, hi
	n.finishBind()
}

func (n *Navigator) finishBind() {
	n.ff.Trace = n.trace
	n.depth = 0
	n.frames = n.frames[:0]
	n.rootGiven = false
	n.lastRawPos = -1
	n.gen++
}

// Bind targets the navigator at a fresh buffer (pull-mode entry point).
func (n *Navigator) Bind(data []byte) { n.prepare(data) }

// BindIndexed targets the navigator at a prebuilt structural index. The
// caller must hold a reference on ix while navigating.
func (n *Navigator) BindIndexed(ix *stream.Index) { n.prepareIndexed(ix) }

// BindWindow is BindIndexed restricted to the single JSON value in
// [lo, hi) of ix's buffer.
func (n *Navigator) BindWindow(ix *stream.Index, lo, hi int) { n.prepareWindow(ix, lo, hi) }

// Pos returns the current absolute cursor position.
func (n *Navigator) Pos() int { return n.s.Pos() }

// Data returns the bound input buffer.
func (n *Navigator) Data() []byte { return n.s.Data() }

// Stats snapshots the per-group fast-forward accounting of everything
// navigated since the last bind. InputBytes is the bound span, so
// ScannedBytes() completes the cost attribution: every input byte is
// either charged to a Table 1 group or was scanned (or never reached,
// if navigation stopped early — call Finish first for the full
// identity).
func (n *Navigator) Stats() Stats {
	return Stats{
		InputBytes:     int64(n.rootEnd - n.rootStart),
		Skipped:        n.ff.Stats,
		WordsProcessed: n.s.WordsProcessed,
	}
}

// skipValue fast-forwards over the value under the cursor, charging
// group g. inArray selects the primitive terminator set: ','/']' for
// array elements, ','/'}' for attribute values.
func (n *Navigator) skipValue(vt jsonpath.ValueType, g fastforward.Group, inArray bool) error {
	switch vt {
	case jsonpath.Object:
		return n.ff.GoOverObj(g)
	case jsonpath.Array:
		return n.ff.GoOverAry(g)
	default:
		var err error
		if inArray {
			_, err = n.ff.GoOverPriElem(g)
		} else {
			_, err = n.ff.GoOverPriAttr(g)
		}
		return err
	}
}

// outputValue fast-forwards over an accepted value (G3), returning its
// whitespace-trimmed span for emission.
func (n *Navigator) outputValue(vt jsonpath.ValueType, inArray bool) (fastforward.Span, error) {
	switch vt {
	case jsonpath.Object:
		return n.ff.GoOverObjOut()
	case jsonpath.Array:
		return n.ff.GoOverAryOut()
	default:
		var (
			sp  fastforward.Span
			err error
		)
		if inArray {
			sp, _, err = n.ff.GoOverPriElemOut()
		} else {
			sp, _, err = n.ff.GoOverPriAttrOut()
		}
		return sp, err
	}
}

// ---- pull-mode navigation ----

// Root classifies and returns the record's root value. It may be called
// again while the root is still navigable (open, or not yet consumed).
func (n *Navigator) Root() (NavValue, error) {
	if n.rootGiven {
		if len(n.frames) > 0 && n.frames[0].start == n.root.Pos {
			return n.root, nil // open: still navigable
		}
		if n.s.Pos() == n.root.Pos {
			return n.root, nil // untouched
		}
		return NavValue{}, fmt.Errorf("%w: root (cursor at %d)", ErrCursorPassed, n.s.Pos())
	}
	b, ok := n.s.SkipWS()
	if !ok {
		return NavValue{}, fmt.Errorf("core: empty input")
	}
	n.root = NavValue{Pos: n.s.Pos(), VType: jsonpath.TypeOfByte(b), gen: n.gen}
	n.rootGiven = true
	return n.root, nil
}

// resume makes v the innermost open container: deeper frames are closed
// with the G4/G5 end movements, or — when v is still unconsumed under
// the cursor — v is opened and pushed. Any other state means the cursor
// moved past v.
func (n *Navigator) resume(v NavValue, kind jsonpath.ValueType) (*navFrame, error) {
	if !n.Live(v) {
		return nil, ErrPreviousBind
	}
	if v.VType != kind {
		return nil, fmt.Errorf("on-demand: %s navigation on %s value at %d", kind, v.VType, v.Pos)
	}
	if len(n.frames) > v.depth && n.frames[v.depth].start == v.Pos {
		for len(n.frames) > v.depth+1 {
			if err := n.closeTop(); err != nil {
				return nil, err
			}
		}
		return &n.frames[v.depth], nil
	}
	if len(n.frames) == v.depth && n.s.Pos() == v.Pos {
		if len(n.frames) >= maxDepth {
			return nil, fmt.Errorf("core: nesting deeper than %d at %d", maxDepth, v.Pos)
		}
		n.s.Advance(1) // consume '{' or '['
		n.frames = append(n.frames, navFrame{start: v.Pos, kind: kind, pending: -1})
		return &n.frames[v.depth], nil
	}
	return nil, fmt.Errorf("%w: value at %d (cursor at %d)", ErrCursorPassed, v.Pos, n.s.Pos())
}

// closeTop finishes the innermost open container: a G4 jump to the
// object end or a G5 jump to the array end, from wherever the cursor is.
func (n *Navigator) closeTop() error {
	fr := n.frames[len(n.frames)-1]
	n.frames = n.frames[:len(n.frames)-1]
	if fr.kind == jsonpath.Object {
		return n.ff.GoToObjEnd()
	}
	return n.ff.GoToAryEnd()
}

// skipPending fast-forwards over the frame's handed-out child when it is
// still unconsumed under the cursor: an unwanted sibling, charged G2 in
// objects and G5 in arrays exactly as the driver charges dead members.
func (n *Navigator) skipPending(fr *navFrame) error {
	if fr.pending < 0 || n.s.Pos() != fr.pending {
		return nil
	}
	if fr.kind == jsonpath.Array {
		return n.skipValue(fr.pendingVT, fastforward.G5, true)
	}
	return n.skipValue(fr.pendingVT, fastforward.G2, false)
}

// Field scans v (an object) forward for the named attribute, skipping
// unwanted siblings with the same movements a compiled child step uses:
// NextAttr candidate selection (G1 when expected narrows the value
// type) and G2 value skips on name mismatch. expected declares the
// value type the caller will navigate next — Unknown accepts any.
// found=false means the object ended without the name at or after the
// cursor; the object is then closed.
func (n *Navigator) Field(v NavValue, name string, expected jsonpath.ValueType) (NavValue, bool, error) {
	fr, err := n.resume(v, jsonpath.Object)
	if err != nil {
		return NavValue{}, false, err
	}
	if err := n.skipPending(fr); err != nil {
		return NavValue{}, false, err
	}
	for {
		r, err := n.ff.NextAttr(expected)
		if err != nil {
			return NavValue{}, false, err
		}
		if r.End {
			n.frames = n.frames[:len(n.frames)-1]
			return NavValue{}, false, nil
		}
		if string(r.Name) == name {
			child := NavValue{Pos: n.s.Pos(), VType: r.VType, depth: v.depth + 1, gen: n.gen}
			fr.pending, fr.pendingVT = child.Pos, r.VType
			return child, true, nil
		}
		if err := n.skipValue(r.VType, fastforward.G2, false); err != nil {
			return NavValue{}, false, err
		}
	}
}

// Elem positions on element i of v (an array), fast-forwarding over the
// intervening elements en bloc (G5, GoOverElems). found=false means the
// array ended before i; the array is then closed. Requesting an element
// at or before one already consumed fails with ErrCursorPassed.
func (n *Navigator) Elem(v NavValue, i int) (NavValue, bool, error) {
	if i < 0 {
		return NavValue{}, false, fmt.Errorf("on-demand: negative index %d", i)
	}
	fr, err := n.resume(v, jsonpath.Array)
	if err != nil {
		return NavValue{}, false, err
	}
	commas := i // from just after '[', element i lies past i commas
	if fr.pending >= 0 {
		if n.s.Pos() == fr.pending {
			if i == fr.elemIdx {
				return NavValue{Pos: fr.pending, VType: fr.pendingVT, depth: v.depth + 1, gen: n.gen}, true, nil
			}
			if i < fr.elemIdx {
				return NavValue{}, false, fmt.Errorf("%w: element %d of array at %d (cursor at element %d)", ErrCursorPassed, i, v.Pos, fr.elemIdx)
			}
			if err := n.skipPending(fr); err != nil {
				return NavValue{}, false, err
			}
		} else if i <= fr.elemIdx {
			return NavValue{}, false, fmt.Errorf("%w: element %d of array at %d (cursor past element %d)", ErrCursorPassed, i, v.Pos, fr.elemIdx)
		}
		// element elemIdx consumed: its trailing comma plus one comma per
		// skipped element in between
		commas = i - fr.elemIdx
	}
	if commas > 0 {
		_, ended, err := n.ff.GoOverElems(commas)
		if err != nil {
			return NavValue{}, false, err
		}
		if ended {
			n.frames = n.frames[:len(n.frames)-1]
			return NavValue{}, false, nil
		}
	}
	r, err := n.ff.NextElem(jsonpath.Unknown, i)
	if err != nil {
		return NavValue{}, false, err
	}
	if r.End {
		n.frames = n.frames[:len(n.frames)-1]
		return NavValue{}, false, nil
	}
	child := NavValue{Pos: n.s.Pos(), VType: r.VType, depth: v.depth + 1, gen: n.gen}
	fr.pending, fr.pendingVT, fr.elemIdx = child.Pos, r.VType, r.Index
	return child, true, nil
}

// Fields iterates v's remaining attributes in document order. Children
// the callback leaves unconsumed are skipped (G2) before the scan
// continues; returning false stops the iteration with the object left
// open. Name bytes alias the input and are only valid inside the call.
func (n *Navigator) Fields(v NavValue, fn func(name []byte, child NavValue) (bool, error)) error {
	for {
		fr, err := n.resume(v, jsonpath.Object)
		if err != nil {
			return err
		}
		if err := n.skipPending(fr); err != nil {
			return err
		}
		r, err := n.ff.NextAttr(jsonpath.Unknown)
		if err != nil {
			return err
		}
		if r.End {
			n.frames = n.frames[:len(n.frames)-1]
			return nil
		}
		child := NavValue{Pos: n.s.Pos(), VType: r.VType, depth: v.depth + 1, gen: n.gen}
		fr.pending, fr.pendingVT = child.Pos, r.VType
		cont, err := fn(r.Name, child)
		if err != nil || !cont {
			return err
		}
	}
}

// Elems iterates v's remaining elements in document order, resuming
// after whatever the callback consumed; returning false stops with the
// array left open.
func (n *Navigator) Elems(v NavValue, fn func(idx int, child NavValue) (bool, error)) error {
	for {
		fr, err := n.resume(v, jsonpath.Array)
		if err != nil {
			return err
		}
		idx := 0
		if fr.pending >= 0 {
			if err := n.skipPending(fr); err != nil {
				return err
			}
			idx = fr.elemIdx // NextElem crosses the trailing comma and bumps
		}
		r, err := n.ff.NextElem(jsonpath.Unknown, idx)
		if err != nil {
			return err
		}
		if r.End {
			n.frames = n.frames[:len(n.frames)-1]
			return nil
		}
		child := NavValue{Pos: n.s.Pos(), VType: r.VType, depth: v.depth + 1, gen: n.gen}
		fr.pending, fr.pendingVT, fr.elemIdx = child.Pos, r.VType, r.Index
		cont, err := fn(r.Index, child)
		if err != nil || !cont {
			return err
		}
	}
}

// Raw consumes v and returns its span [start, end). An unconsumed value
// is taken with the G3 output movements, exactly as a compiled query
// emits a match; a container v that is already open (it was descended
// into) is finished in place with the G4/G5 end movements and its full
// span — opener through closer — returned. Repeating Raw on the value
// just consumed returns the memoized span without moving the cursor,
// so chained decodes of one value stay valid. The span aliases the
// input buffer under the same zero-copy rules as Sink.Span.
func (n *Navigator) Raw(v NavValue) (int, int, error) {
	if !n.Live(v) {
		return 0, 0, ErrPreviousBind
	}
	if n.lastRawPos >= 0 && v.Pos == n.lastRawPos {
		return n.lastRawStart, n.lastRawEnd, nil
	}
	start, end, err := n.rawConsume(v)
	if err == nil {
		n.lastRawPos, n.lastRawStart, n.lastRawEnd = v.Pos, start, end
	}
	return start, end, err
}

// rawConsume is Raw's consuming path: the cursor actually moves.
func (n *Navigator) rawConsume(v NavValue) (int, int, error) {
	if len(n.frames) > v.depth && n.frames[v.depth].start == v.Pos {
		for len(n.frames) > v.depth {
			if err := n.closeTop(); err != nil {
				return 0, 0, err
			}
		}
		return v.Pos, n.s.Pos(), nil
	}
	if len(n.frames) != v.depth || n.s.Pos() != v.Pos {
		return 0, 0, fmt.Errorf("%w: value at %d (cursor at %d)", ErrCursorPassed, v.Pos, n.s.Pos())
	}
	if v.depth == 0 {
		return n.rawRoot(v)
	}
	inArray := n.frames[v.depth-1].kind == jsonpath.Array
	sp, err := n.outputValue(v.VType, inArray)
	if err != nil {
		return 0, 0, err
	}
	return sp.Start, sp.End, nil
}

// rawRoot consumes the root value, which has no terminator set: strings
// end at their closing quote, other primitives at whitespace or EOF
// (both scanned, as in the engines' bare-$ path), containers with the
// G3 output movements.
func (n *Navigator) rawRoot(v NavValue) (int, int, error) {
	switch v.VType {
	case jsonpath.Object, jsonpath.Array:
		sp, err := n.outputValue(v.VType, false)
		if err != nil {
			return 0, 0, err
		}
		return sp.Start, sp.End, nil
	default:
		if n.s.Current() == '"' {
			if err := n.s.SkipString(); err != nil {
				return 0, 0, err
			}
			return v.Pos, n.s.Pos(), nil
		}
		start, end := n.s.SkipPrimitive()
		return start, end, nil
	}
}

// Finish consumes the rest of the record: open containers are closed
// (G4/G5) and an untouched root is skipped wholesale (G2), so that the
// full ScannedBytes + Σ SkippedBytes == InputBytes attribution holds
// over the whole record.
func (n *Navigator) Finish() error {
	for len(n.frames) > 0 {
		if err := n.closeTop(); err != nil {
			return err
		}
	}
	if n.rootGiven && n.s.Pos() == n.root.Pos {
		switch n.root.VType {
		case jsonpath.Object, jsonpath.Array:
			return n.skipValue(n.root.VType, fastforward.G2, false)
		default:
			_, _, err := n.rawRoot(n.root)
			return err
		}
	}
	return nil
}
