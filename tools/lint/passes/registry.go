// Package passes registers every jsonskilint analyzer. The command
// and the meta-tests both consume this list, so adding a pass here is
// the single step that wires it into the suite — and into the fixture
// conventions the meta-test enforces (a testdata module with bad and
// good packages under the directory named after the analyzer).
//
// Three analyzers remain — poolpair, escapespan and navgen — for rules
// Go's type system cannot express. A rule an API change can make true
// (span lifetimes, read-only index rows, Table 1 charges) is kept by
// that API instead of a pass (DESIGN §5d).
package passes

import (
	"jsonski/tools/lint/analysis"
	"jsonski/tools/lint/passes/escapespan"
	"jsonski/tools/lint/passes/navgen"
	"jsonski/tools/lint/passes/poolpair"
)

// All returns every registered analyzer, in the order the command runs
// and lists them.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		poolpair.Analyzer,
		escapespan.Analyzer,
		navgen.Analyzer,
	}
}
