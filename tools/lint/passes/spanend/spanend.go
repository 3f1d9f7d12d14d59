// Package spanend enforces the tracing contract (DESIGN §5g): every
// telemetry span started with StartRoot or StartChild must reach End()
// on every non-panic path through the starting function, or visibly
// hand the span's ownership elsewhere (return it, store it in a
// structure, send it, or pass it to a helper that finishes it). An
// un-Ended sampled span pins its whole trace's span set in memory and
// the trace never flushes to the exporter, so the leak is silent — no
// panic, just a hole in the telemetry.
//
// The check is the path-sensitive must-reach-release dataflow from
// analysis/ownership. Two upgrades over the original syntactic version:
// an End present only on some paths (one branch arm, or after an early
// return the defer has not yet covered) is now a leak on the paths that
// miss it, and "passed to a helper" is only a hand-off when the helper
// is unknown or its interprocedural ConsumesFact says it actually Ends
// the span — a local helper that demonstrably never Ends its argument
// no longer launders the leak.
package spanend

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"jsonski/tools/lint/analysis"
	"jsonski/tools/lint/analysis/ownership"
)

var Analyzer = &analysis.Analyzer{
	Name: "spanend",
	Doc:  "started telemetry spans must reach End() on every path",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	ownership.Check(pass, rules, messages)
	return nil
}

var rules = ownership.Rules{
	Classify:      classify,
	IsTrackedType: func(pass *analysis.Pass, t types.Type) bool { return isSpan(t) },
	ReleaseRecv:   func(name string) bool { return name == "End" },
	ReleaseArg:    nil,
	// A span handed to an un-summarized callee is the callee's to End:
	// the hand-off is visible at the call site (the finishRecord
	// pattern). Summarized callees are held to their summary.
	ArgHandOff: true,
}

var messages = ownership.Messages{
	Dropped: func(what string) string {
		return fmt.Sprintf("span from %s is dropped without an End()", what)
	},
	Never: func(what, name string) string {
		return fmt.Sprintf("span %q from %s never reaches End() (and it does not escape); its trace will never flush", name, what)
	},
	LeakReturn: func(name string, startLine int) string {
		return fmt.Sprintf("return leaks span %q started at line %d; end it with defer %s.End()", name, startLine, name)
	},
	LeakMixed: func(what, name string) string {
		return fmt.Sprintf("span %q from %s reaches End() on some paths but not all; end it with defer %s.End()", name, what, name)
	},
}

// classify recognizes a span start: a Start*-named call whose result is
// a telemetry span.
func classify(pass *analysis.Pass, call *ast.CallExpr) (string, ast.Expr, bool) {
	name := analysis.CalleeName(call)
	if !strings.HasPrefix(name, "Start") {
		return "", nil, false
	}
	if isSpan(pass.TypeOf(call)) {
		return name, nil, true
	}
	return "", nil, false
}

// isSpan reports whether t is a pointer to the telemetry span shape: a
// named Span whose pointer method set has both End and StartChild.
// (jsonski.Span, the byte-range struct, has neither method.)
func isSpan(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := types.Unalias(t).(*types.Pointer); !ok {
		return false
	}
	n := analysis.NamedOf(t)
	if n == nil || n.Obj().Name() != "Span" {
		return false
	}
	return analysis.HasPtrMethod(n, "End") && analysis.HasPtrMethod(n, "StartChild")
}
