package core

import (
	"jsonski/internal/automaton"
	"jsonski/internal/baseline/domparser"
	"jsonski/internal/bits"
	"jsonski/internal/fastforward"
	"jsonski/internal/jsonpath"
)

// Filter probes: how the engine evaluates RFC 9535 filter selectors
// without giving up fast-forwarding.
//
// A filter state cannot decide a member from its key or index alone, so
// the automaton reports Candidate and the driver consumes the value with
// the same movement a skip would use (actProbe), charging the same group
// (G2 for attributes, G5 for elements): capturing the span *is* the
// skip. The probe then decides the predicate over the captured bytes:
//
//   - skip-eligible plan: every query embedded in the predicate is a
//     relative singular child chain (`@.a.b`). Each distinct chain
//     becomes a mini child-chain engine run over the candidate span with
//     full fast-forwarding — G1 type filtering prunes wrong-typed
//     values, G4 jumps out after the unique key — so the candidate is
//     never fully parsed. Chains resolve lazily (an `&&` that fails on
//     its first operand never probes the second) and memoize per
//     candidate.
//
//   - full-parse plan: anything else (absolute `$` references, indexes,
//     wildcards, slices, nested filters, bare `@`) falls back to the
//     reference evaluator: the candidate span is DOM-parsed and the
//     predicate evaluated by domparser.Doc.Holds. Absolute references
//     additionally materialize the record's DOM, once per run.
//
// When the filter step is not last, a selected candidate re-descends
// through a suffix engine compiled from the remaining steps — built by
// NewEngine, so nested filters in the suffix recurse through the same
// machinery. Probe and suffix movements are merged into the parent
// run's Stats; re-scanned bytes are therefore charged once per movement
// over them, not once per input byte (DESIGN §5f).

// filterRuntime is the per-filter-step probe state of one Engine.
type filterRuntime struct {
	expr     *jsonpath.FilterExpr
	eligible bool // skip-eligible plan applies
	hasAbs   bool // predicate embeds absolute ($) references

	// Skip-eligible plan: deduplicated child chains, their automata,
	// and the operand-query → chain index map.
	chainAut []*automaton.Automaton
	opIdx    map[*jsonpath.SubQuery]int

	// Suffix automaton for re-descending selected candidates; nil when
	// the filter is the last step. subHasAbs marks suffix filters with
	// absolute references, which inherit the parent's record DOM.
	subAut    *automaton.Automaton
	subHasAbs bool

	// Lazily created per-run machinery, reused across candidates.
	probes []*Engine
	sub    *Engine
	vals   []jsonpath.CmpVal
	valSet []bool
}

// buildFilterRuntimes compiles the probe plans for every filter step of
// the automaton, or returns nil when there are none.
func buildFilterRuntimes(a *automaton.Automaton) []*filterRuntime {
	var frs []*filterRuntime
	for q := 0; q < a.States(); q++ {
		if a.IsAccept(q) || a.Step(q).Kind != jsonpath.Filter {
			continue
		}
		if frs == nil {
			frs = make([]*filterRuntime, a.States())
		}
		st := a.Step(q)
		fr := &filterRuntime{expr: st.Filter, hasAbs: st.Filter.HasAbsolute()}
		_, fr.eligible = st.Filter.SingularChildRefs()
		if fr.eligible {
			fr.compileChains()
		}
		if !a.IsAccept(q + 1) {
			steps := suffixSteps(a, q+1)
			fr.subAut = automaton.New(&jsonpath.Path{Steps: steps})
			fr.subHasAbs = suffixHasAbsolute(steps)
		}
		frs[q] = fr
	}
	return frs
}

// suffixSteps copies the steps of state q's path from q on.
func suffixSteps(a *automaton.Automaton, q int) []jsonpath.Step {
	var steps []jsonpath.Step
	for ; !a.IsAccept(q); q++ {
		steps = append(steps, a.Step(q))
	}
	return steps
}

// suffixHasAbsolute reports whether any filter among the steps embeds an
// absolute ($) reference, in which case the evaluator of those steps must
// inherit the enclosing record's DOM.
func suffixHasAbsolute(steps []jsonpath.Step) bool {
	for _, s := range steps {
		if s.Kind == jsonpath.Filter && s.Filter.HasAbsolute() {
			return true
		}
	}
	return false
}

// compileChains walks the predicate, deduplicates its child chains, and
// compiles one mini child-chain automaton per distinct chain.
func (fr *filterRuntime) compileChains() {
	fr.opIdx = make(map[*jsonpath.SubQuery]int)
	seen := make(map[string]int)
	add := func(q *jsonpath.SubQuery) {
		key := ""
		for _, st := range q.Path.Steps {
			key += st.Name + "\x00"
		}
		i, ok := seen[key]
		if !ok {
			i = len(fr.chainAut)
			seen[key] = i
			steps := make([]jsonpath.Step, len(q.Path.Steps))
			for k, st := range q.Path.Steps {
				steps[k] = jsonpath.Step{Kind: jsonpath.Child, Name: st.Name}
				if k+1 < len(q.Path.Steps) {
					steps[k].Expect = jsonpath.Object // successor is a child step
				}
			}
			fr.chainAut = append(fr.chainAut, automaton.New(&jsonpath.Path{Steps: steps}))
		}
		fr.opIdx[q] = i
	}
	var walk func(e *jsonpath.FilterExpr)
	walk = func(e *jsonpath.FilterExpr) {
		switch e.Op {
		case jsonpath.FilterOr, jsonpath.FilterAnd, jsonpath.FilterNot:
			for _, k := range e.Kids {
				walk(k)
			}
		case jsonpath.FilterCompare:
			for _, o := range []jsonpath.Operand{e.Left, e.Right} {
				if !o.IsLiteral {
					add(o.Query)
				}
			}
		case jsonpath.FilterExists:
			add(e.Query)
		}
	}
	walk(fr.expr)
	fr.vals = make([]jsonpath.CmpVal, len(fr.chainAut))
	fr.valSet = make([]bool, len(fr.chainAut))
}

// probeOp labels the probe plan and its decision in explain traces.
func (fr *filterRuntime) probeOp(selected bool) fastforward.Op {
	switch {
	case fr.eligible && selected:
		return fastforward.OpProbeSkipEligible
	case fr.eligible:
		return fastforward.OpProbeSkipEligibleReject
	case selected:
		return fastforward.OpProbeFullParse
	}
	return fastforward.OpProbeFullParseReject
}

// resolveProbe is the engine's probe decision: child holds the one
// state past the filter step, [start, end) the candidate span the
// driver just consumed. Selected candidates emit (filter last) or
// re-descend through the suffix engine.
func (e *Engine) resolveProbe(child stateSet, vt jsonpath.ValueType, start, end int, g fastforward.Group) error {
	next := bits.TrailingZeros(child)
	fr := e.filters[next-1]
	raw := e.s.Data()[start:end]
	selected := e.probeHolds(fr, raw, vt)
	if e.trace != nil {
		e.trace.Record(int(g), uint8(fr.probeOp(selected)), start, end)
	}
	if !selected {
		return nil
	}
	if e.aut.IsAccept(next) {
		e.emitMatch(child, start, end)
		return nil
	}
	sub := fr.sub
	if sub == nil {
		sub = NewEngine(fr.subAut)
		sub.DisableFastForward = e.DisableFastForward
		sub.DisabledGroups = e.DisabledGroups
		fr.sub = sub
	}
	if fr.subHasAbs {
		sub.absDoc = e.recordDoc()
	}
	member := e.aut.PathOf(next)
	st, err := sub.Run(raw, func(_, s2, e2 int) { e.emitMember(member, start+s2, start+e2) })
	e.mergeSkips(st.Skipped)
	return err
}

// probeHolds evaluates the predicate for one candidate span.
func (e *Engine) probeHolds(fr *filterRuntime, raw []byte, vt jsonpath.ValueType) bool {
	if !fr.eligible {
		doc, err := domparser.ParseDoc(raw)
		if err != nil {
			return false
		}
		if fr.hasAbs {
			doc.Abs = e.recordDoc()
		}
		return doc.Holds(fr.expr, doc.Root)
	}
	for i := range fr.valSet {
		fr.valSet[i] = false
	}
	return e.holdsExpr(fr, fr.expr, raw, vt)
}

// holdsExpr evaluates a skip-eligible predicate, resolving child chains
// lazily via probeChain.
func (e *Engine) holdsExpr(fr *filterRuntime, f *jsonpath.FilterExpr, raw []byte, vt jsonpath.ValueType) bool {
	switch f.Op {
	case jsonpath.FilterOr:
		for _, k := range f.Kids {
			if e.holdsExpr(fr, k, raw, vt) {
				return true
			}
		}
		return false
	case jsonpath.FilterAnd:
		for _, k := range f.Kids {
			if !e.holdsExpr(fr, k, raw, vt) {
				return false
			}
		}
		return true
	case jsonpath.FilterNot:
		return !e.holdsExpr(fr, f.Kids[0], raw, vt)
	case jsonpath.FilterCompare:
		return jsonpath.Compare(f.Cmp, e.operandVal(fr, f.Left, raw, vt), e.operandVal(fr, f.Right, raw, vt))
	default: // FilterExists
		return !e.probeChain(fr, fr.opIdx[f.Query], raw, vt).Missing
	}
}

func (e *Engine) operandVal(fr *filterRuntime, o jsonpath.Operand, raw []byte, vt jsonpath.ValueType) jsonpath.CmpVal {
	if o.IsLiteral {
		return jsonpath.LitVal(o.Lit)
	}
	return e.probeChain(fr, fr.opIdx[o.Query], raw, vt)
}

// probeChain resolves chain i against the candidate: a mini child-chain
// engine run over the span, memoized per candidate. Non-object candidates
// resolve every child chain to Nothing without any probe.
func (e *Engine) probeChain(fr *filterRuntime, i int, raw []byte, vt jsonpath.ValueType) jsonpath.CmpVal {
	if fr.valSet[i] {
		return fr.vals[i]
	}
	v := jsonpath.CmpVal{Missing: true}
	if vt == jsonpath.Object {
		if fr.probes == nil {
			fr.probes = make([]*Engine, len(fr.chainAut))
		}
		pe := fr.probes[i]
		if pe == nil {
			pe = NewEngine(fr.chainAut[i])
			pe.DisableFastForward = e.DisableFastForward
			pe.DisabledGroups = e.DisabledGroups
			fr.probes[i] = pe
		}
		var vs, ve int
		got := false
		st, err := pe.Run(raw, func(_, s2, e2 int) {
			if !got {
				vs, ve, got = s2, e2, true
			}
		})
		e.mergeSkips(st.Skipped)
		if err == nil && got {
			v = jsonpath.DecodeValue(raw[vs:ve])
		}
	}
	fr.vals[i] = v
	fr.valSet[i] = true
	return v
}

// mergeSkips folds a probe or suffix run's fast-forward charges into
// the parent run's accounting.
func (e *Engine) mergeSkips(st fastforward.Stats) {
	for g, v := range st.SkippedBytes {
		e.ff.Stats.SkippedBytes[g] += v
	}
}

// recordDoc lazily DOM-parses the record under evaluation, for absolute
// ($) references inside filter predicates. The parse is cached per run;
// suffix engines inherit the parent's document via absDoc instead of
// treating their candidate span as the root.
func (e *Engine) recordDoc() *domparser.Doc {
	if e.absDoc != nil {
		return e.absDoc
	}
	if e.rootDoc == nil {
		doc, err := domparser.ParseDoc(e.s.Data())
		if err != nil {
			// The engine is mid-stream over this record, so it parses;
			// an error means a malformed tail the stream has not reached
			// yet. Treat the root as absent: absolute references resolve
			// to Nothing.
			doc = &domparser.Doc{}
		}
		e.rootDoc = doc
	}
	return e.rootDoc
}
