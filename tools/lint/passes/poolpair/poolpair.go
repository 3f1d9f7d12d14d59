// Package poolpair enforces the acquire/release pairing of pooled and
// refcounted resources (DESIGN §5a/§5d): every sync.Pool.Get and every
// call producing a refcounted value — a type with both Acquire and
// Release in its pointer method set, like stream.Index — must reach a
// Release/Put on every non-panic path through the acquiring function,
// or visibly hand the value's ownership elsewhere (return it, store it
// in a structure, send it). The check is a path-sensitive must-reach-
// release dataflow over the control-flow graph (analysis/ownership), so
// the shapes the first, syntactic version of this analyzer provably
// missed — a release present only in one branch arm, or an early
// return that bails out before a later defer registers — are leaks
// here, not coincidences of token positions. Helpers that release a
// parameter on every path carry an interprocedural ConsumesFact, so
// handing a value to one counts as the release it is.
package poolpair

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"jsonski/tools/lint/analysis"
	"jsonski/tools/lint/analysis/ownership"
)

var Analyzer = &analysis.Analyzer{
	Name: "poolpair",
	Doc:  "pooled or refcounted resources must reach a Release/Put on every path",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	ownership.Check(pass, rules, messages)
	return nil
}

var rules = ownership.Rules{
	Classify:      classify,
	IsTrackedType: func(pass *analysis.Pass, t types.Type) bool { return isRefcounted(t) },
	ReleaseRecv:   isReleaseName,
	ReleaseArg:    isReleaseName,
}

var messages = ownership.Messages{
	Dropped: func(what string) string {
		return fmt.Sprintf("result of %s is dropped without a Release/Put", what)
	},
	Never: func(what, name string) string {
		return fmt.Sprintf("%s is never released: no Release/Put of %q on any path (and it does not escape)", what, name)
	},
	LeakReturn: func(name string, acquireLine int) string {
		return fmt.Sprintf("return leaks %q acquired at line %d; release it with defer", name, acquireLine)
	},
	LeakMixed: func(what, name string) string {
		return fmt.Sprintf("%q from %s is released on some paths but not all; release it with defer", name, what)
	},
}

// classify recognizes ownership-taking acquires: sync.Pool.Get, an
// Acquire() on a refcounted receiver (ownership binds to the receiver),
// and any call returning a refcounted value.
func classify(pass *analysis.Pass, call *ast.CallExpr) (string, ast.Expr, bool) {
	name := analysis.CalleeName(call)
	switch name {
	case "Get":
		if sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if isSyncPool(pass.TypeOf(sel.X)) {
				return "sync.Pool.Get", nil, true
			}
		}
	case "Acquire":
		if sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if _, isLocal := analysis.Unparen(sel.X).(*ast.Ident); isLocal && isRefcounted(pass.TypeOf(sel.X)) {
				return "Acquire", sel.X, true
			}
		}
		return "", nil, false
	case "Release", "Put":
		// The pairing side, never an acquire.
		return "", nil, false
	}
	if t := pass.TypeOf(call); t != nil && isRefcounted(t) {
		return name + " (returns a refcounted value)", nil, true
	}
	return "", nil, false
}

func isSyncPool(t types.Type) bool {
	n := analysis.NamedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "sync" && n.Obj().Name() == "Pool"
}

func isRefcounted(t types.Type) bool {
	n := analysis.NamedOf(t)
	return n != nil && analysis.HasPtrMethod(n, "Acquire") && analysis.HasPtrMethod(n, "Release")
}

func isReleaseName(name string) bool {
	switch name {
	case "Release", "Put":
		return true
	}
	l := strings.ToLower(name)
	return strings.HasPrefix(l, "put") || strings.HasPrefix(l, "release") ||
		strings.HasPrefix(l, "free") || strings.HasPrefix(l, "recycle")
}
