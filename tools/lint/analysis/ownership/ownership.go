// Package ownership is the must-reach-release engine behind the
// poolpair analyzer (DESIGN §5i): a forward dataflow over
// the cfg package tracking, per acquire site, whether the acquired
// value is still owned along each path. Where the first-generation
// analyzers asked "is there a textual return between the acquire and
// the first release", this engine answers the real question — does
// every non-panic path from the acquire reach a release, a defer that
// releases, or a visible ownership transfer — so the leak-on-early-
// return and release-only-in-one-arm shapes fall out of the lattice
// instead of position heuristics.
//
// The engine is interprocedural: for every analyzed function with
// tracked-type parameters it computes and exports a ConsumesFact
// ("param i reaches a release on every path"), and treats calls to
// functions carrying such a fact precisely. A call to a summarized
// function that does NOT consume its argument is no longer the blanket
// hand-off the syntactic analyzers assumed.
package ownership

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"jsonski/tools/lint/analysis"
	"jsonski/tools/lint/analysis/cfg"
	"jsonski/tools/lint/analysis/dataflow"
)

// ConsumesFact summarizes a function for its callers: Params[i] is true
// when the i'th parameter is released / ended / handed off on every
// non-panic path through the function. Exported for every analyzed
// function with at least one tracked-type parameter, so an existing
// all-false fact distinguishes "seen and does not consume" from "never
// analyzed".
type ConsumesFact struct {
	Params []bool
}

func (*ConsumesFact) AFact() {}

func (f *ConsumesFact) String() string {
	var idx []string
	for i, c := range f.Params {
		if c {
			idx = append(idx, fmt.Sprintf("%d", i))
		}
	}
	if len(idx) == 0 {
		return "consumes()"
	}
	return "consumes(" + strings.Join(idx, ",") + ")"
}

// Rules parameterize the engine for one resource kind.
type Rules struct {
	// Classify reports whether call acquires a tracked value. For
	// receiver-style acquires (r.Acquire(), which returns nothing) it
	// also returns the receiver expression the ownership binds to.
	Classify func(pass *analysis.Pass, call *ast.CallExpr) (what string, recv ast.Expr, ok bool)
	// IsTrackedType guards which parameters get consume summaries.
	IsTrackedType func(pass *analysis.Pass, t types.Type) bool
	// ReleaseRecv reports whether a method of this name called on the
	// tracked value releases it (Release, Put…).
	ReleaseRecv func(name string) bool
	// ReleaseArg reports whether passing the tracked value as an
	// argument to a call of this name releases it (pool.Put, putBuf…).
	// Facts take precedence; this is the fallback for unknown callees.
	ReleaseArg func(name string) bool
}

// Messages renders the diagnostics in each analyzer's voice.
type Messages struct {
	Dropped    func(what string) string
	Never      func(what, name string) string
	LeakReturn func(name string, acquireLine int) string
	LeakMixed  func(what, name string) string
}

// ownership lattice bits, per site: a value may be (on different paths)
// not yet acquired, owned, or finished.
const (
	bitUninit uint8 = 1 << iota
	bitOwned
	bitDone
)

// site is one acquire whose release obligation the dataflow tracks.
type site struct {
	pos        token.Pos
	what       string
	call       *ast.CallExpr // nil for parameter seeds
	obj        types.Object  // nil when consumed or dropped inline
	ok         bool
	aliases    map[types.Object]bool
	suppressed bool // a non-deferred closure touches it: stay silent
	hasFinish  bool
}

// Check runs the engine over every function in the pass: summaries
// first (iterated to a package-local fixpoint), then leak checks with
// the summaries available.
func Check(pass *analysis.Pass, rules Rules, msg Messages) {
	// Phase 1: consume summaries for every top-level function with
	// tracked parameters, iterated so helpers that consume via other
	// package-local helpers converge.
	decls := collectDecls(pass)
	for round := 0; round < 5; round++ {
		changed := false
		for _, fd := range decls {
			if summarize(pass, rules, fd) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Phase 2: leak checks over every function body, literals included
	// (each literal is its own analysis unit; the CFG never crosses a
	// literal boundary).
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkBody(pass, rules, msg, fn, fn.Body)
				}
			case *ast.FuncLit:
				checkBody(pass, rules, msg, fn, fn.Body)
			}
			return true
		})
	}
}

func collectDecls(pass *analysis.Pass) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// summarize computes fd's ConsumesFact and exports it when it changed,
// reporting whether it did.
func summarize(pass *analysis.Pass, rules Rules, fd *ast.FuncDecl) bool {
	fnObj, _ := pass.Info.Defs[fd.Name].(*types.Func)
	if fnObj == nil {
		return false
	}
	sig, _ := fnObj.Type().(*types.Signature)
	if sig == nil {
		return false
	}
	var tracked []int
	for i := 0; i < sig.Params().Len(); i++ {
		if rules.IsTrackedType(pass, sig.Params().At(i).Type()) {
			tracked = append(tracked, i)
		}
	}
	if len(tracked) == 0 {
		return false
	}

	params := make([]bool, sig.Params().Len())
	for _, i := range tracked {
		obj := sig.Params().At(i)
		st := &site{pos: fd.Pos(), what: "param", obj: obj}
		res := analyze(pass, rules, fd, fd.Body, []*site{st}, true)
		// A parameter a closure releases on the function's behalf may be
		// consumed at times the CFG cannot see; claim consumption so
		// callers stay silent rather than false-positive.
		params[i] = res[0].consumed || st.suppressed
	}
	fact := &ConsumesFact{Params: params}
	var old ConsumesFact
	if pass.ImportObjectFact(fnObj, &old) && equalBools(old.Params, params) {
		return false
	}
	pass.ExportObjectFact(fnObj, fact)
	return true
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkBody finds acquires in one function body and reports the leaks.
func checkBody(pass *analysis.Pass, rules Rules, msg Messages, fn ast.Node, body *ast.BlockStmt) {
	sites := collectAcquires(pass, rules, fn, body)
	if len(sites) == 0 {
		return
	}
	var tracked []*site
	for _, st := range sites {
		if st.ok {
			continue
		}
		if st.obj == nil {
			pass.Reportf(st.pos, "%s", msg.Dropped(st.what))
			continue
		}
		tracked = append(tracked, st)
	}
	if len(tracked) == 0 {
		return
	}
	results := analyze(pass, rules, fn, body, tracked, false)
	for i, st := range tracked {
		r := results[i]
		if st.suppressed || len(r.leaks) == 0 {
			continue
		}
		if !st.hasFinish {
			pass.Reportf(st.pos, "%s", msg.Never(st.what, st.obj.Name()))
			continue
		}
		acqLine := pass.Fset.Position(st.pos).Line
		mixedReported := false
		for _, leak := range r.leaks {
			if leak.ret != nil {
				pass.Reportf(leak.ret.Pos(), "%s", msg.LeakReturn(st.obj.Name(), acqLine))
			} else if !mixedReported {
				pass.Reportf(st.pos, "%s", msg.LeakMixed(st.what, st.obj.Name()))
				mixedReported = true
			}
		}
	}
}

type leak struct {
	ret *ast.ReturnStmt // nil: leaked at the implicit end of the function
}

type siteResult struct {
	consumed bool
	leaks    []leak
}

// analyze runs the ownership dataflow for the given sites over one
// function body. With seedOwned, sites start Owned at entry (parameter
// summaries); otherwise they start Uninit and their acquire calls flip
// them Owned.
func analyze(pass *analysis.Pass, rules Rules, fn ast.Node, body *ast.BlockStmt, sites []*site, seedOwned bool) []siteResult {
	for _, st := range sites {
		if st.aliases == nil {
			st.aliases = aliasClosure(pass, body, st.obj)
		}
		st.hasFinish = false
		st.suppressed = false
	}
	scanClosures(pass, rules, body, sites)

	g := cfg.New(body)

	// Effects per CFG node, precomputed once.
	type effect struct {
		kind int // 0 acquire, 1 finish
		site int
	}
	effects := make(map[ast.Node][]effect)
	addEffects := func(n ast.Node) {
		var list []effect
		for k, st := range sites {
			acq, fin := nodeEffects(pass, rules, n, st)
			if acq {
				list = append(list, effect{kind: 0, site: k})
			}
			if fin {
				list = append(list, effect{kind: 1, site: k})
				st.hasFinish = true
			}
		}
		if list != nil {
			effects[n] = list
		}
	}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			addEffects(n)
		}
	}

	spec := dataflow.Spec[[]uint8]{
		Dir: dataflow.Forward,
		Entry: func() []uint8 {
			f := make([]uint8, len(sites))
			for i := range f {
				if seedOwned {
					f[i] = bitOwned
				} else {
					f[i] = bitUninit
				}
			}
			return f
		},
		Clone: func(f []uint8) []uint8 { return append([]uint8(nil), f...) },
		Join: func(dst, src []uint8) bool {
			changed := false
			for i := range dst {
				if dst[i]|src[i] != dst[i] {
					dst[i] |= src[i]
					changed = true
				}
			}
			return changed
		},
		Transfer: func(n ast.Node, f []uint8) {
			for _, e := range effects[n] {
				if e.kind == 0 {
					f[e.site] = bitOwned
				} else {
					f[e.site] = bitDone
				}
			}
		},
		Branch: func(cond ast.Expr, takeTrue bool, f []uint8) {
			k, isNil := nilComparison(pass, cond, sites)
			if k < 0 {
				return
			}
			// cond is "x == nil" (isNil) or "x != nil" (!isNil); on the
			// edge where x is nil the site cannot be owned, on the edge
			// where x is non-nil it cannot still be unacquired.
			xIsNil := isNil == takeTrue
			if xIsNil {
				f[k] &^= bitOwned
			} else {
				f[k] &^= bitUninit
			}
		},
	}
	res := dataflow.Run(g, spec)
	exits := dataflow.ExitFacts(g, spec, res)

	out := make([]siteResult, len(sites))
	for i := range out {
		out[i].consumed = true
	}
	for b, f := range exits {
		if b.Terminal == "panic" {
			continue
		}
		var ret *ast.ReturnStmt
		if b.Terminal == "return" && len(b.Nodes) > 0 {
			ret, _ = b.Nodes[len(b.Nodes)-1].(*ast.ReturnStmt)
		}
		for k := range sites {
			if f[k]&bitOwned != 0 {
				out[k].leaks = append(out[k].leaks, leak{ret: ret})
				out[k].consumed = false
			}
			if f[k]&bitDone == 0 {
				// Consuming means finishing on every path, not merely
				// never-owned at exit.
				out[k].consumed = false
			}
		}
	}
	// A function none of whose exits were reached (infinite loop)
	// consumes nothing it can prove.
	if len(exits) == 0 {
		for i := range out {
			out[i].consumed = false
		}
	}
	return out
}

// nodeEffects reports whether n contains st's acquire call and whether
// it finishes st (release, transfer, or deferred equivalents). Nested
// function literals are opaque except under defer, where the deferred
// body's releases count at the defer point (a registered defer runs on
// every later exit, panics included).
func nodeEffects(pass *analysis.Pass, rules Rules, n ast.Node, st *site) (acquire, finish bool) {
	if d, ok := n.(*ast.DeferStmt); ok {
		if deferFinishes(pass, rules, d, st) {
			finish = true
		}
		// The deferred call's arguments are evaluated at the defer
		// statement; an acquire there still registers.
	}
	inA := func(e ast.Expr) bool { return isAlias(pass, e, st.aliases) }
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false // handled by scanClosures / its own analysis
		}
		switch m := m.(type) {
		case *ast.CallExpr:
			if m == st.call {
				acquire = true
			}
			if callFinishes(pass, rules, m, inA) {
				finish = true
			}
		case *ast.ReturnStmt:
			for _, res := range m.Results {
				if inA(res) {
					finish = true
				}
			}
		case *ast.SendStmt:
			if inA(m.Value) {
				finish = true
			}
		case *ast.CompositeLit:
			for _, elt := range m.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if inA(v) {
					finish = true
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range m.Lhs {
				switch analysis.Unparen(lhs).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					if i < len(m.Rhs) && inA(m.Rhs[i]) {
						finish = true
					}
				}
			}
		}
		return true
	})
	return acquire, finish
}

// callFinishes reports whether call releases or visibly hands off a
// value matched by inA.
func callFinishes(pass *analysis.Pass, rules Rules, call *ast.CallExpr, inA func(ast.Expr) bool) bool {
	name := analysis.CalleeName(call)
	if sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr); ok && rules.ReleaseRecv(name) && inA(sel.X) {
		return true
	}
	callee := calleeFunc(pass, call)
	var fact ConsumesFact
	haveFact := callee != nil && pass.ImportObjectFact(callee, &fact)
	for i, arg := range call.Args {
		if !inA(arg) {
			continue
		}
		if haveFact {
			if i < len(fact.Params) && fact.Params[i] {
				return true
			}
			// Summarized and does not consume this argument: a plain
			// use, not a hand-off — the precision the syntactic
			// analyzers could not offer.
			continue
		}
		if rules.ReleaseArg != nil && rules.ReleaseArg(name) {
			return true
		}
	}
	return false
}

// deferFinishes reports whether the deferred call finishes st — either
// directly (defer r.Release()) or through an immediately deferred
// closure (defer func() { r.Release() }()).
func deferFinishes(pass *analysis.Pass, rules Rules, d *ast.DeferStmt, st *site) bool {
	inA := func(e ast.Expr) bool { return isAlias(pass, e, st.aliases) }
	if callFinishes(pass, rules, d.Call, inA) {
		return true
	}
	lit, ok := analysis.Unparen(d.Call.Fun).(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		if found {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok && callFinishes(pass, rules, call, inA) {
			found = true
		}
		return !found
	})
	return found
}

// scanClosures marks sites touched by non-deferred function literals:
// a closure that releases or stores the value on the parent's behalf
// runs at times the parent's CFG cannot see, so the site is analyzed
// conservatively (no report) rather than precisely.
func scanClosures(pass *analysis.Pass, rules Rules, body *ast.BlockStmt, sites []*site) {
	ast.Inspect(body, func(n ast.Node) bool {
		d, isDefer := n.(*ast.DeferStmt)
		if isDefer {
			if _, isLit := analysis.Unparen(d.Call.Fun).(*ast.FuncLit); isLit {
				return false // precise: handled by deferFinishes
			}
			return true
		}
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		for _, st := range sites {
			if st.suppressed {
				continue
			}
			inA := func(e ast.Expr) bool { return isAlias(pass, e, st.aliases) }
			touched := false
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if touched {
					return false
				}
				if e, ok := m.(ast.Expr); ok && inA(e) {
					touched = true
				}
				return !touched
			})
			if touched {
				st.suppressed = true
			}
		}
		return false
	})
}

// collectAcquires finds the acquire sites directly inside fn (nested
// literals excluded — they are their own analysis units) and resolves
// each result binding.
func collectAcquires(pass *analysis.Pass, rules Rules, fn ast.Node, body *ast.BlockStmt) []*site {
	var sites []*site
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		what, recv, isAcq := rules.Classify(pass, call)
		if !isAcq {
			return true
		}
		st := &site{pos: call.Pos(), what: what, call: call}
		if recv != nil {
			if id, ok := analysis.Unparen(recv).(*ast.Ident); ok {
				st.obj = objOf(pass, id)
			}
			if st.obj == nil {
				st.ok = true
			}
			sites = append(sites, st)
			return true
		}
		bindSite(pass, fn, call, st)
		sites = append(sites, st)
		return true
	})
	return sites
}

// bindSite resolves what happens to the call's result: bound to a
// variable, consumed inline by a chained release, or transferred.
func bindSite(pass *analysis.Pass, fn ast.Node, call *ast.CallExpr, st *site) {
	path := enclosingPath(fn, call)
	i := len(path) - 2
	for i >= 0 {
		switch path[i].(type) {
		case *ast.TypeAssertExpr, *ast.ParenExpr:
			i--
			continue
		}
		break
	}
	if i < 0 {
		return
	}
	switch parent := path[i].(type) {
	case *ast.AssignStmt:
		for j, rhs := range parent.Rhs {
			if containsNode(rhs, call) && j < len(parent.Lhs) {
				if id, ok := analysis.Unparen(parent.Lhs[j]).(*ast.Ident); ok && id.Name != "_" {
					st.obj = objOf(pass, id)
				}
			}
		}
		if st.obj == nil {
			// Assigned into a field, map, or blank: ownership moved into
			// a structure (or explicitly discarded, which stays visible
			// in review).
			st.ok = true
		}
	case *ast.ValueSpec:
		for j, v := range parent.Values {
			if containsNode(v, call) && j < len(parent.Names) {
				if obj := pass.Info.Defs[parent.Names[j]]; obj != nil {
					st.obj = obj
				}
			}
		}
		if st.obj == nil {
			st.ok = true
		}
	case *ast.SelectorExpr:
		// acquire().Release(): chained consumption. Any other chained
		// use drops the reference.
		if i-1 >= 0 {
			if outer, ok := path[i-1].(*ast.CallExpr); ok && analysis.Unparen(outer.Fun) == parent {
				st.ok = false
				if nameConsumes(parent.Sel.Name) {
					st.ok = true
					return
				}
			}
		}
	case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.CallExpr, *ast.SendStmt:
		// Returned, stored into a literal, passed along, or sent:
		// ownership is the consumer's problem.
		st.ok = true
	}
}

// nameConsumes is the chained-call whitelist: the canonical finishers.
func nameConsumes(name string) bool {
	switch name {
	case "Release", "Put":
		return true
	}
	return false
}

// aliasClosure computes the value-preserving alias set of seed inside
// body: v := w through parens, type asserts, address-of, and deref.
// Selections and indexing produce new values, not aliases.
func aliasClosure(pass *analysis.Pass, body *ast.BlockStmt, seed types.Object) map[types.Object]bool {
	set := map[types.Object]bool{}
	if seed == nil {
		return set
	}
	set[seed] = true
	type edge struct{ from, to types.Object }
	var edges []edge
	add := func(lhs, rhs ast.Expr) {
		id, ok := analysis.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		lobj := objOf(pass, id)
		r := aliasRoot(rhs)
		if lobj == nil || r == nil {
			return
		}
		robj := objOf(pass, r)
		if robj == nil {
			return
		}
		edges = append(edges, edge{from: robj, to: lobj})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					add(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					add(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			if set[e.from] && !set[e.to] {
				set[e.to] = true
				changed = true
			}
		}
	}
	return set
}

// aliasRoot returns the identifier e preserves the value of, or nil:
// only parens, type assertions, address-of, deref, and re-slicing keep
// the same underlying handle (a subslice shares the backing array the
// pool manages; a selector or index is a different resource).
func aliasRoot(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// isAlias reports whether e denotes one of the site's aliases.
func isAlias(pass *analysis.Pass, e ast.Expr, aliases map[types.Object]bool) bool {
	r := aliasRoot(analysis.Unparen(e))
	if r == nil {
		return false
	}
	obj := objOf(pass, r)
	return obj != nil && aliases[obj]
}

// nilComparison matches cond against "x == nil" / "x != nil" for an
// alias of one of the sites, returning the site index and whether the
// operator is ==. Returns -1 when cond is no such comparison.
func nilComparison(pass *analysis.Pass, cond ast.Expr, sites []*site) (int, bool) {
	be, ok := analysis.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return -1, false
	}
	x, y := analysis.Unparen(be.X), analysis.Unparen(be.Y)
	if isNilIdent(pass, x) {
		x, y = y, x
	}
	if !isNilIdent(pass, y) {
		return -1, false
	}
	for k, st := range sites {
		if isAlias(pass, x, st.aliases) {
			return k, be.Op == token.EQL
		}
	}
	return -1, false
}

func isNilIdent(pass *analysis.Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.Info.Uses[id].(*types.Nil)
	return isNil || id.Name == "nil"
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := analysis.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := pass.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := pass.Info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

func objOf(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return pass.Info.Defs[id]
}

// enclosingPath returns the chain of nodes from fn down to target,
// target last.
func enclosingPath(fn ast.Node, target ast.Node) []ast.Node {
	var path, best []ast.Node
	ast.Inspect(fn, func(n ast.Node) bool {
		if n == nil {
			path = path[:len(path)-1]
			return true
		}
		if best != nil {
			return false
		}
		path = append(path, n)
		if n == target {
			best = append([]ast.Node(nil), path...)
			return false
		}
		return true
	})
	return best
}

func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}
