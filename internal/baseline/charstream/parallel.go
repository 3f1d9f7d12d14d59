package charstream

import (
	"fmt"
	"sync"
	"sync/atomic"

	"jsonski/internal/automaton"
	"jsonski/internal/jsonpath"
)

// This file implements the speculative parallel mode of the JPStream-class
// baseline for single large records (paper Figure 10, "JPStream(16)").
//
// JPStream proper enumerates automaton states to process chunks of one
// record in parallel. We reproduce the same structure with a simplified,
// still-speculative pipeline:
//
//	A. (parallel) each chunk is scanned twice, once per possible
//	   starting string-state (the speculation), recording the resulting
//	   end-state and nesting-depth delta per variant;
//	B. (serial, O(#chunks)) string states and absolute depths are
//	   stitched chunk to chunk;
//	C. (parallel) each chunk is re-scanned with its now-known start
//	   state, collecting the element separators of the target array;
//	D. (parallel) workers evaluate the query's remaining steps over
//	   disjoint element ranges.
//
// Leading child steps ($.pd before [*]) are resolved serially first: on
// the evaluated datasets the target array starts near the record head, so
// this prefix scan is short.

// chunkScan is the per-variant outcome of speculatively scanning a chunk.
type chunkScan struct {
	endInStr   bool
	depthDelta int
}

// scanChunk scans data[lo:hi] with an assumed starting string-state.
func scanChunk(data []byte, lo, hi int, inStr bool) chunkScan {
	depth := 0
	for i := lo; i < hi; i++ {
		c := data[i]
		if inStr {
			switch c {
			case '\\':
				i++
			case '"':
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		}
	}
	return chunkScan{endInStr: inStr, depthDelta: depth}
}

// sepScan re-scans a chunk with known start state, collecting positions
// of the commas that separate elements of the array whose content sits at
// absolute depth arrayDepth, and the position of the bracket closing it.
func sepScan(data []byte, lo, hi int, inStr bool, depth, arrayDepth int) (commas []int, closeAt int) {
	closeAt = -1
	for i := lo; i < hi; i++ {
		c := data[i]
		if inStr {
			switch c {
			case '\\':
				i++
			case '"':
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '{', '[':
			depth++
		case '}', ']':
			depth--
			if depth == arrayDepth-1 {
				return commas, i
			}
		case ',':
			if depth == arrayDepth {
				commas = append(commas, i)
			}
		}
	}
	return commas, -1
}

// ParallelRun evaluates the query over one large record using `workers`
// goroutines. emit may be nil; it may be called concurrently.
func (ev *Evaluator) ParallelRun(data []byte, workers int, emit func(start, end int)) (int64, error) {
	nSteps := ev.aut.States() - 1 // one path: its steps, then accept
	if workers <= 1 || nSteps == 0 {
		return ev.Run(data, emit)
	}
	// Absolute ($) references in filter predicates resolve against the
	// whole record, which sharded workers cannot see.
	for i := 0; i < nSteps; i++ {
		if st := ev.aut.Step(i); st.Kind == jsonpath.Filter && st.Filter.HasAbsolute() {
			return ev.Run(data, emit)
		}
	}
	// Resolve leading child steps serially.
	sc := &scanner{data: data, aut: ev.aut}
	sc.skipWS()
	consumed := 0
	for consumed < nSteps {
		st := ev.aut.Step(consumed)
		if st.Kind == jsonpath.Index || st.Kind == jsonpath.Slice {
			break // the array step to parallelize over
		}
		if st.Kind != jsonpath.Child || !st.Streamable() {
			// Wildcard/filter/union prefixes are not worth speculating on.
			return ev.Run(data, emit)
		}
		if sc.pos >= len(data) || data[sc.pos] != '{' {
			return 0, nil
		}
		found, err := sc.seekAttr(st.Name)
		if err != nil {
			return 0, err
		}
		if !found {
			return 0, nil
		}
		consumed++
	}
	if consumed == nSteps {
		// The whole path was child steps; the value under the cursor is
		// the single match.
		start := sc.pos
		if err := sc.skipValue(); err != nil {
			return 0, err
		}
		if emit != nil {
			emit(start, sc.pos)
		}
		return 1, nil
	}
	step := ev.aut.Step(consumed)
	if !step.Streamable() {
		// Backward/negative slices need the array length up front.
		return ev.Run(data, emit)
	}
	if sc.pos >= len(data) || data[sc.pos] != '[' {
		return 0, nil // array step over a non-array value
	}
	aryOpen := sc.pos
	elems, err := discoverElements(data, aryOpen, workers)
	if err != nil {
		return 0, err
	}
	// Remaining path: steps after the array step.
	rest := &jsonpath.Path{Steps: append([]jsonpath.Step(nil), pathSteps(ev)[consumed+1:]...)}
	sub := New(rest)
	var (
		next  atomic.Int64
		total atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(elems) {
					return
				}
				if !automaton.IndexMatches(&step, i) {
					continue
				}
				el := elems[i]
				var subEmit func(s, e int)
				if emit != nil {
					subEmit = func(s, e int) { emit(el.start+s, el.start+e) }
				}
				n, err := sub.runValue(data[el.start:el.end], subEmit)
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
				total.Add(n)
			}
		}()
	}
	wg.Wait()
	return total.Load(), first
}

// runValue evaluates the evaluator's path against a single JSON value
// (not necessarily an object/array record).
func (ev *Evaluator) runValue(data []byte, emit func(start, end int)) (int64, error) {
	sc := &scanner{data: data, aut: ev.aut, emit: emit}
	sc.skipWS()
	if sc.pos >= len(data) {
		return 0, nil
	}
	if ev.aut.IsAccept(0) {
		start := sc.pos
		if err := sc.skipValue(); err != nil {
			return 0, err
		}
		sc.match(start, sc.pos)
		return sc.count, nil
	}
	var err error
	switch data[sc.pos] {
	case '{':
		err = sc.object(0, true)
	case '[':
		err = sc.array(0, true)
	default:
		return 0, nil
	}
	return sc.count, err
}

// pathSteps exposes the automaton's steps for slicing the remaining path.
func pathSteps(ev *Evaluator) []jsonpath.Step {
	steps := make([]jsonpath.Step, ev.aut.States()-1)
	for i := range steps {
		steps[i] = ev.aut.Step(i)
	}
	return steps
}

// seekAttr scans the object under the cursor for the named attribute,
// leaving the cursor at its value; other values are skipped char by char.
func (sc *scanner) seekAttr(name string) (bool, error) {
	sc.pos++ // '{'
	for {
		sc.skipWS()
		if sc.pos >= len(sc.data) {
			return false, fmt.Errorf("charstream: EOF inside object")
		}
		switch sc.data[sc.pos] {
		case '}':
			sc.pos++
			return false, nil
		case ',':
			sc.pos++
			continue
		case '"':
		default:
			return false, fmt.Errorf("charstream: expected key at %d", sc.pos)
		}
		keyStart := sc.pos
		if err := sc.skipString(); err != nil {
			return false, err
		}
		key := sc.data[keyStart+1 : sc.pos-1]
		sc.skipWS()
		if sc.pos >= len(sc.data) || sc.data[sc.pos] != ':' {
			return false, fmt.Errorf("charstream: expected ':' at %d", sc.pos)
		}
		sc.pos++
		sc.skipWS()
		if string(key) == name {
			return true, nil
		}
		if err := sc.skipValue(); err != nil {
			return false, err
		}
	}
}

// element is a discovered top-level element of the target array.
type element struct{ start, end int }

// discoverElements finds the value spans of the array opening at aryOpen
// using the speculative chunked pipeline (phases A–C).
func discoverElements(data []byte, aryOpen, workers int) ([]element, error) {
	lo := aryOpen + 1
	hi := len(data)
	n := workers * 4 // more chunks than workers for balance
	if hi-lo < 4096 || n < 2 {
		return serialElements(data, aryOpen)
	}
	bounds := make([]int, 0, n+1)
	for i := 0; i <= n; i++ {
		b := lo + (hi-lo)*i/n
		// Slide past backslashes so no chunk starts escaped.
		for b > lo && b < hi && data[b-1] == '\\' {
			b++
		}
		if len(bounds) > 0 && b <= bounds[len(bounds)-1] {
			continue
		}
		bounds = append(bounds, b)
	}
	if bounds[len(bounds)-1] != hi {
		bounds = append(bounds, hi)
	}
	chunks := len(bounds) - 1

	// Phase A: speculative scans, both string-state variants.
	scans := make([][2]chunkScan, chunks)
	parallelFor(chunks, workers, func(i int) {
		scans[i][0] = scanChunk(data, bounds[i], bounds[i+1], false)
		scans[i][1] = scanChunk(data, bounds[i], bounds[i+1], true)
	})

	// Phase B: stitch string states and absolute depths.
	// Depth 0 = level of the array itself; its content sits at depth 1.
	startInStr := make([]bool, chunks)
	startDepth := make([]int, chunks)
	inStr := false
	depth := 1 // we begin just past '['
	for i := 0; i < chunks; i++ {
		startInStr[i] = inStr
		startDepth[i] = depth
		v := 0
		if inStr {
			v = 1
		}
		inStr = scans[i][v].endInStr
		depth += scans[i][v].depthDelta
	}

	// Phase C: collect separators with known start states.
	type seps struct {
		commas  []int
		closeAt int
	}
	parts := make([]seps, chunks)
	parallelFor(chunks, workers, func(i int) {
		c, cl := sepScan(data, bounds[i], bounds[i+1], startInStr[i], startDepth[i], 1)
		parts[i] = seps{c, cl}
	})

	// Assemble element spans between separators.
	var elems []element
	prev := lo
	closeAt := -1
	for i := 0; i < chunks && closeAt < 0; i++ {
		for _, c := range parts[i].commas {
			elems = append(elems, element{prev, c})
			prev = c + 1
		}
		closeAt = parts[i].closeAt
	}
	if closeAt < 0 {
		return nil, fmt.Errorf("charstream: array at %d is not closed", aryOpen)
	}
	if trimmed := trimSpan(data, prev, closeAt); trimmed.start < trimmed.end {
		elems = append(elems, element{prev, closeAt})
	}
	return elems, nil
}

// serialElements is the small-input fallback for discoverElements.
func serialElements(data []byte, aryOpen int) ([]element, error) {
	commas, closeAt := sepScan(data, aryOpen+1, len(data), false, 1, 1)
	if closeAt < 0 {
		return nil, fmt.Errorf("charstream: array at %d is not closed", aryOpen)
	}
	var elems []element
	prev := aryOpen + 1
	for _, c := range commas {
		elems = append(elems, element{prev, c})
		prev = c + 1
	}
	if trimmed := trimSpan(data, prev, closeAt); trimmed.start < trimmed.end {
		elems = append(elems, element{prev, closeAt})
	}
	return elems, nil
}

func trimSpan(data []byte, start, end int) element {
	for start < end {
		switch data[start] {
		case ' ', '\t', '\n', '\r':
			start++
		default:
			return element{start, end}
		}
	}
	return element{start, end}
}

// parallelFor runs fn(0..n-1) across `workers` goroutines.
func parallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ParallelCount is ParallelRun without an emit callback.
func (ev *Evaluator) ParallelCount(data []byte, workers int) (int64, error) {
	return ev.ParallelRun(data, workers, nil)
}
