// Package navgen enforces the on-demand error contract of the lazy
// document API (DESIGN §5i): a mis-typed or failed navigation hop parks
// its error on the value, and the deferred-error terminals (Raw,
// String, Int, Float, Bool, Unmarshal) report it. Such a terminal must
// not have its error blank-discarded unless the value was gated with
// Err() or Exists() on that path — the error is lost otherwise.
//
// The gate is a forward dataflow over the control-flow graph
// (analysis/cfg + analysis/dataflow), so a gate on one branch arm does
// not launder an ungated use on another path, and re-assigning the
// value clears its gate. The package defining the value type is exempt.
//
// A value used after its document re-binds needs no rule: the library
// answers it with ErrCursorPassed on every method, Err() and Exists()
// included.
package navgen

import (
	"go/ast"
	"go/types"

	"jsonski/tools/lint/analysis"
	"jsonski/tools/lint/analysis/cfg"
	"jsonski/tools/lint/analysis/dataflow"
)

var Analyzer = &analysis.Analyzer{
	Name: "navgen",
	Doc:  "on-demand terminal errors must be checked or gated with Err()/Exists()",
	Run:  run,
}

func isTerminal(name string) bool {
	switch name {
	case "Raw", "String", "Int", "Float", "Bool", "Unmarshal":
		return true
	}
	return false
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkBody(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkBody(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// isValueType reports whether t is navigation-value-like: a named type
// whose method set has both Err and Raw. Defining package exempt.
func isValueType(pass *analysis.Pass, t types.Type) bool {
	n := analysis.NamedOf(t)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg() == pass.Pkg {
		return false
	}
	return analysis.HasPtrMethod(n, "Err") && analysis.HasPtrMethod(n, "Raw")
}

// fact is the dataflow state: the navigation values gated by an
// Err()/Exists() check.
type fact map[types.Object]bool

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	hasTerminals := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
			isTerminal(sel.Sel.Name) && isValueType(pass, pass.TypeOf(sel.X)) {
			hasTerminals = true
		}
		return true
	})
	if !hasTerminals {
		return
	}

	g := cfg.New(body)
	spec := dataflow.Spec[fact]{
		Dir:   dataflow.Forward,
		Entry: func() fact { return fact{} },
		Clone: func(f fact) fact {
			out := fact{}
			for k := range f {
				out[k] = true
			}
			return out
		},
		// Gates join leniently (union): gated on any path is enough to
		// stay silent — the lint prefers missed gates to noise.
		Join: func(dst, src fact) bool {
			changed := false
			for k := range src {
				if !dst[k] {
					dst[k] = true
					changed = true
				}
			}
			return changed
		},
		Transfer: func(n ast.Node, f fact) {
			ast.Inspect(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.FuncLit:
					return false
				case *ast.CallExpr:
					sel, ok := analysis.Unparen(m.Fun).(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if recv := receiverObj(pass, sel.X); recv != nil &&
						(sel.Sel.Name == "Err" || sel.Sel.Name == "Exists") && isValueType(pass, recv.Type()) {
						f[recv] = true
					}
				case *ast.AssignStmt:
					// A re-assigned value is un-gated.
					for _, lhs := range m.Lhs {
						if id, ok := analysis.Unparen(lhs).(*ast.Ident); ok {
							if obj := objOf(pass, id); obj != nil {
								delete(f, obj)
							}
						}
					}
				}
				return true
			})
		},
	}
	res := dataflow.Run(g, spec)

	reported := map[ast.Node]bool{}
	res.Replay(g, spec, func(b *cfg.Block, n ast.Node, before fact) {
		// Uses are checked against the statement's before-state, so a
		// gate and a terminal in one statement do not count as gated.
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				sel, ok := analysis.Unparen(m.Fun).(*ast.SelectorExpr)
				if !ok || !isTerminal(sel.Sel.Name) || !isValueType(pass, pass.TypeOf(sel.X)) {
					return true
				}
				recv := receiverObj(pass, sel.X)
				gated := recv != nil && before[recv]
				if !gated && discardsError(pass, n, m) && !reported[m] {
					reported[m] = true
					pass.Reportf(m.Pos(), "%s discards its error; a mis-typed or failed navigation is silently lost — check the error or gate with Err()/Exists() first",
						terminalLabel(recv, sel.Sel.Name))
				}
			}
			return true
		})
	})
}

func terminalLabel(recv types.Object, method string) string {
	if recv != nil {
		return recv.Name() + "." + method + "()"
	}
	return method + "()"
}

// discardsError reports whether the terminal call's error result is
// thrown away inside stmt: the call is an expression statement, or the
// error position of its assignment is blank.
func discardsError(pass *analysis.Pass, stmt ast.Node, call *ast.CallExpr) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		return analysis.Unparen(s.X) == call
	case *ast.AssignStmt:
		// raw, _ := v.Raw() — the two-result terminals put error last;
		// Unmarshal has only the error.
		if len(s.Rhs) == 1 && analysis.Unparen(s.Rhs[0]) == call {
			last := analysis.Unparen(s.Lhs[len(s.Lhs)-1])
			id, ok := last.(*ast.Ident)
			return ok && id.Name == "_"
		}
	case *ast.GoStmt:
		return analysis.Unparen(s.Call) == call
	case *ast.DeferStmt:
		return analysis.Unparen(s.Call) == call
	}
	return false
}

// receiverObj resolves the variable behind a method receiver
// expression (v, (v), *v, &v).
func receiverObj(pass *analysis.Pass, e ast.Expr) types.Object {
	switch x := analysis.Unparen(e).(type) {
	case *ast.Ident:
		return objOf(pass, x)
	case *ast.StarExpr:
		return receiverObj(pass, x.X)
	case *ast.UnaryExpr:
		return receiverObj(pass, x.X)
	}
	return nil
}

func objOf(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return pass.Info.Defs[id]
}
