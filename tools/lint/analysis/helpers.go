package analysis

import (
	"go/ast"
	"go/types"
)

// InspectStack walks every file, calling fn with each node and the
// stack of its ancestors (outermost first, not including n itself).
// Returning false from fn prunes the subtree under n.
func InspectStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			desc := fn(n, stack)
			if desc {
				stack = append(stack, n)
			}
			return desc
		})
	}
}

// Deref strips one level of pointer from t.
func Deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// NamedOf returns the *types.Named behind t (through pointers and
// aliases), or nil.
func NamedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = Deref(types.Unalias(t))
	n, _ := t.(*types.Named)
	return n
}

// HasPtrMethod reports whether *named has a method with the given name
// in its method set.
func HasPtrMethod(named *types.Named, name string) bool {
	if named == nil {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	return false
}

// Unparen strips parentheses from e.
func Unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// CalleeName returns the bare name of a call's callee: the identifier,
// or the selector's field name for method calls and qualified calls.
func CalleeName(call *ast.CallExpr) string {
	switch fun := Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// RootIdent returns the identifier at the base of a selector / index /
// slice / type-assert / star / unary chain, or nil.
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}
