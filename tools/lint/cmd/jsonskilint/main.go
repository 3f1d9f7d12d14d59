// Command jsonskilint runs the jsonski custom analyzers over the
// packages matched by its arguments:
//
//	go run ./tools/lint/cmd/jsonskilint ./...
//
// The suite machine-enforces the invariants the engine's performance
// and memory safety rest on but Go's type system cannot express
// (DESIGN §5d, §5i); the three analyzers are:
//
//	poolpair     — pooled / refcounted resources reach a Release or Put
//	               on every path (CFG-based ownership dataflow)
//	escapespan   — zero-copy spans are not retained without a copy,
//	               including through callees (interprocedural summaries)
//	navgen       — on-demand terminal errors are checked, or the value
//	               is gated with Err() or Exists()
//
// With -json, findings are emitted as a JSON array of
// {analyzer, file, line, column, message} objects instead of text.
//
// Exit status is 1 when any analyzer reports a finding, 2 on failure
// to load or type-check the target packages.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"jsonski/tools/lint/analysis"
	"jsonski/tools/lint/passes"
)

var all = passes.All()

func main() {
	var (
		only    = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		list    = flag.Bool("list", false, "list analyzers and exit")
		jsonOut = flag.Bool("json", false, "emit findings as a JSON array on stdout")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: jsonskilint [-run name,name] [-json] packages...\n\nAnalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, firstLine(a.Doc))
		}
	}
	flag.Parse()

	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, firstLine(a.Doc))
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	analyzers := all
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "jsonskilint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "jsonskilint:", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(cwd, nil, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jsonskilint:", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jsonskilint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		printJSON(diags)
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// jsonDiag is the wire shape of one finding under -json. It is kept
// flat and lower-case so CI tooling (and the problem matcher docs in
// .github/) can consume it without knowing token.Position.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func printJSON(diags []analysis.Diagnostic) {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			Analyzer: d.Analyzer,
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "jsonskilint:", err)
		os.Exit(2)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
