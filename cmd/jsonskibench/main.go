// Command jsonskibench regenerates the tables and figures of the paper's
// evaluation (§5) as text tables, measuring wall-clock time directly.
//
// Usage:
//
//	jsonskibench -exp fig10 -size 64MB
//	jsonskibench -exp table6 -size 256MB
//	jsonskibench -exp all -size 16MB -workers 16
//
// Sizes default to 16MB per dataset so a full run finishes in minutes;
// the paper uses 1GB. Shapes (method ranking, ratios, scaling), not
// absolute numbers, are the reproduction target.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"jsonski"
	"jsonski/internal/automaton"
	"jsonski/internal/baseline/charstream"
	"jsonski/internal/baseline/domparser"
	"jsonski/internal/baseline/index"
	"jsonski/internal/baseline/tape"
	"jsonski/internal/core"
	"jsonski/internal/gen"
	"jsonski/internal/jsonpath"
	"jsonski/internal/queries"
	"jsonski/internal/telemetry"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: fig10, fig11, fig12, fig13, fig14, table4, table6, ablation, sharedindex, all")
		size    = flag.String("size", "16MB", "dataset size (e.g. 64MB)")
		workers = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		seed    = flag.Int64("seed", 42, "dataset seed")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("jsonskibench", telemetry.BuildInfo().Version())
		return
	}
	n, err := parseSize(*size)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jsonskibench:", err)
		os.Exit(1)
	}
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	h := &harness{size: n, workers: w, seed: *seed}
	exps := map[string]func(){
		"fig10":       h.fig10,
		"fig11":       h.fig11,
		"fig12":       h.fig12,
		"fig13":       h.fig13,
		"fig14":       h.fig14,
		"table4":      h.table4,
		"table6":      h.table6,
		"ablation":    h.ablation,
		"sharedindex": h.sharedindex,
	}
	if *exp == "all" {
		for _, name := range []string{"table4", "fig10", "fig11", "fig12", "fig13", "fig14", "table6", "ablation", "sharedindex"} {
			exps[name]()
		}
		return
	}
	fn, ok := exps[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "jsonskibench: unknown experiment %q\n", *exp)
		os.Exit(1)
	}
	fn()
}

func parseSize(s string) (int, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := 1
	switch {
	case strings.HasSuffix(s, "GB"):
		mult, s = 1<<30, strings.TrimSuffix(s, "GB")
	case strings.HasSuffix(s, "MB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "KB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KB")
	}
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

type harness struct {
	size    int
	workers int
	seed    int64

	largeCache map[string][]byte
	smallCache map[string][][]byte
}

func (h *harness) large(name string) []byte {
	if h.largeCache == nil {
		h.largeCache = map[string][]byte{}
	}
	if d, ok := h.largeCache[name]; ok {
		return d
	}
	d, err := gen.Generate(name, h.size, h.seed)
	if err != nil {
		panic(err)
	}
	h.largeCache[name] = d
	return d
}

func (h *harness) small(name string) [][]byte {
	if h.smallCache == nil {
		h.smallCache = map[string][][]byte{}
	}
	if d, ok := h.smallCache[name]; ok {
		return d
	}
	d, err := gen.GenerateRecords(name, h.size, h.seed)
	if err != nil {
		panic(err)
	}
	h.smallCache[name] = d
	return d
}

// benchTime is the minimum sampling window per measurement; tests
// shrink it so experiment smoke runs stay fast.
var benchTime = 200 * time.Millisecond

// timeIt runs fn enough times to exceed benchTime and returns per-run time.
func timeIt(fn func()) time.Duration {
	fn() // warm-up
	n := 0
	start := time.Now()
	for {
		fn()
		n++
		if d := time.Since(start); d > benchTime {
			return d / time.Duration(n)
		}
		if n >= 100 {
			return time.Since(start) / time.Duration(n)
		}
	}
}

// ----- method runners (single record) -----
//
// Each method compiles the query once and returns a closure evaluating
// it per buffer; compilation cost must not pollute per-record timings.

type method struct {
	name    string
	compile func(query string) func(data []byte) int64
}

func (h *harness) serialMethods() []method {
	return []method{
		{"JSONSki", func(q string) func([]byte) int64 {
			cq := jsonski.MustCompile(q)
			return func(d []byte) int64 {
				n, err := cq.Count(d)
				must(err)
				return n
			}
		}},
		{"JPStream", func(q string) func([]byte) int64 {
			ev, err := charstream.Compile(q)
			must(err)
			return func(d []byte) int64 {
				n, err := ev.Count(d)
				must(err)
				return n
			}
		}},
		{"RapidJSON", func(q string) func([]byte) int64 {
			ev, err := domparser.Compile(q)
			must(err)
			return func(d []byte) int64 {
				n, err := ev.Count(d)
				must(err)
				return n
			}
		}},
		{"simdjson", func(q string) func([]byte) int64 {
			ev, err := tape.Compile(q)
			must(err)
			return func(d []byte) int64 {
				n, err := ev.Count(d)
				must(err)
				return n
			}
		}},
		{"Pison", func(q string) func([]byte) int64 {
			ev, err := index.Compile(q)
			must(err)
			return func(d []byte) int64 {
				n, err := ev.Count(d)
				must(err)
				return n
			}
		}},
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func (h *harness) fig10() {
	fmt.Printf("\n== Figure 10: single large record, total execution time (input %s/dataset) ==\n", fmtBytes(h.size))
	fmt.Printf("%-6s %9s | %10s %10s %10s %10s %10s | %12s %10s\n",
		"query", "#matches", "JSONSki", "JPStream", "RapidJSON", "simdjson", "Pison",
		fmt.Sprintf("JPStream(%d)", h.workers), fmt.Sprintf("Pison(%d)", h.workers))
	for _, q := range queries.All {
		data := h.large(q.Dataset)
		var times []time.Duration
		var matches int64
		for _, m := range h.serialMethods() {
			run := m.compile(q.Large)
			times = append(times, timeIt(func() { matches = run(data) }))
		}
		// the baselines' speculative parallel modes
		evC, _ := charstream.Compile(q.Large)
		tParJP := timeIt(func() {
			_, err := evC.ParallelCount(data, h.workers)
			must(err)
		})
		evI, _ := index.Compile(q.Large)
		tParPison := timeIt(func() {
			ix, err := index.ParallelBuild(data, evI.Levels(), h.workers)
			must(err)
			_, err = evI.RunIndex(ix, nil)
			must(err)
		})
		fmt.Printf("%-6s %9d | %10v %10v %10v %10v %10v | %12v %10v\n",
			q.ID, matches, times[0], times[1], times[2], times[3], times[4], tParJP, tParPison)
	}
}

func (h *harness) fig11() {
	fmt.Printf("\n== Figure 11: sequence of small records, sequential (1 thread) ==\n")
	fmt.Printf("%-6s %8s | %10s %10s %10s %10s %10s\n",
		"query", "#records", "JSONSki", "JPStream", "RapidJSON", "simdjson", "Pison")
	for _, q := range queries.All {
		if q.Small == "" {
			continue
		}
		recs := h.small(q.Dataset)
		var times []time.Duration
		for _, m := range h.serialMethods() {
			run := m.compile(q.Small)
			times = append(times, timeIt(func() {
				for _, rec := range recs {
					run(rec)
				}
			}))
		}
		fmt.Printf("%-6s %8d | %10v %10v %10v %10v %10v\n",
			q.ID, len(recs), times[0], times[1], times[2], times[3], times[4])
	}
}

func (h *harness) fig12() {
	fmt.Printf("\n== Figure 12: small records, parallel (%d workers) ==\n", h.workers)
	fmt.Printf("%-6s | %10s %10s %10s\n", "query", "JSONSki", "JPStream", "Pison")
	for _, q := range queries.All {
		if q.Small == "" {
			continue
		}
		recs := h.small(q.Dataset)
		cq := jsonski.MustCompile(q.Small)
		t1 := timeIt(func() {
			_, err := cq.RunRecordsParallel(recs, h.workers, nil)
			must(err)
		})
		evC, _ := charstream.Compile(q.Small)
		t2 := timeIt(func() {
			poolRun(recs, h.workers, func(r []byte) { _, err := evC.Count(r); must(err) })
		})
		evI, _ := index.Compile(q.Small)
		t3 := timeIt(func() {
			poolRun(recs, h.workers, func(r []byte) { _, err := evI.Count(r); must(err) })
		})
		fmt.Printf("%-6s | %10v %10v %10v\n", q.ID, t1, t2, t3)
	}
}

func poolRun(recs [][]byte, workers int, fn func([]byte)) {
	var wg sync.WaitGroup
	ch := make(chan []byte, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range ch {
				fn(r)
			}
		}()
	}
	for _, r := range recs {
		ch <- r
	}
	close(ch)
	wg.Wait()
}

func (h *harness) fig13() {
	fmt.Printf("\n== Figure 13: memory footprint beyond the input buffer (BB, %s) ==\n", fmtBytes(h.size))
	data := h.large("bb")
	q, _ := queries.ByID("BB1")
	n := float64(len(data))
	fmt.Printf("%-10s %14s %10s\n", "method", "extra bytes", "x input")
	report := func(name string, foot int64) {
		fmt.Printf("%-10s %14d %10.2f\n", name, foot, float64(foot)/n)
	}
	report("JSONSki", 0)  // streaming cursor only
	report("JPStream", 0) // streaming automaton only
	root, err := domparser.Parse(data)
	must(err)
	report("RapidJSON", root.FootprintBytes())
	tp, err := tape.Preprocess(data)
	must(err)
	report("simdjson", tp.FootprintBytes())
	ev, _ := index.Compile(q.Large)
	ix, err := index.Build(data, ev.Levels())
	must(err)
	report("Pison", ix.FootprintBytes())
}

func (h *harness) fig14() {
	fmt.Printf("\n== Figure 14: scalability with input size (BB1) ==\n")
	fmt.Printf("%-10s | %10s %10s %10s %10s %10s\n",
		"size", "JSONSki", "JPStream", "RapidJSON", "simdjson", "Pison")
	q, _ := queries.ByID("BB1")
	for _, mult := range []int{1, 2, 4, 8} {
		size := h.size * mult / 4
		if size < 1<<20 {
			size = 1 << 20 * mult
		}
		data, err := gen.Generate(q.Dataset, size, h.seed)
		must(err)
		var times []time.Duration
		for _, m := range h.serialMethods() {
			run := m.compile(q.Large)
			times = append(times, timeIt(func() { run(data) }))
		}
		fmt.Printf("%-10s | %10v %10v %10v %10v %10v\n",
			fmtBytes(len(data)), times[0], times[1], times[2], times[3], times[4])
	}
}

func (h *harness) table4() {
	fmt.Printf("\n== Table 4: dataset statistics (synthetic, %s each) ==\n", fmtBytes(h.size))
	fmt.Printf("%-6s %12s %10s %10s %10s %10s %6s\n",
		"data", "bytes", "#objects", "#arrays", "#attr", "#prim", "depth")
	for _, name := range gen.Names {
		st := gen.Stats(h.large(name))
		fmt.Printf("%-6s %12d %10d %10d %10d %10d %6d\n",
			strings.ToUpper(name), st.Bytes, st.Objects, st.Arrays,
			st.Attributes, st.Primitives, st.MaxDepth)
	}
}

func (h *harness) table6() {
	fmt.Printf("\n== Table 6: fast-forward ratios by function group ==\n")
	fmt.Printf("%-6s | %8s %8s %8s %8s %8s | %8s\n", "query", "G1", "G2", "G3", "G4", "G5", "overall")
	for _, q := range queries.All {
		data := h.large(q.Dataset)
		p := jsonpath.MustParse(q.Large)
		e := core.NewEngine(automaton.New(p))
		st, err := e.Run(data, nil)
		must(err)
		per := st.GroupRatios()
		fmt.Printf("%-6s | %7.2f%% %7.2f%% %7.2f%% %7.2f%% %7.2f%% | %7.2f%%\n",
			q.ID, per[0]*100, per[1]*100, per[2]*100, per[3]*100, per[4]*100,
			st.FastForwardRatio()*100)
	}
}

func (h *harness) ablation() {
	fmt.Printf("\n== Ablations: fast-forward and bit-parallelism contributions ==\n")
	fmt.Printf("%-6s | %12s %12s %12s | %8s %8s\n",
		"query", "full", "no-ff", "scalar-skip", "ff gain", "bp gain")
	for _, q := range queries.All {
		data := h.large(q.Dataset)
		p := jsonpath.MustParse(q.Large)
		full := core.NewEngine(automaton.New(p))
		tFull := timeIt(func() { _, err := full.Run(data, nil); must(err) })
		noFF := core.NewEngine(automaton.New(p))
		noFF.DisableFastForward = true
		tNoFF := timeIt(func() { _, err := noFF.Run(data, nil); must(err) })
		scalar := core.NewScalarEngine(automaton.New(p))
		tScalar := timeIt(func() { _, err := scalar.Run(data, nil); must(err) })
		fmt.Printf("%-6s | %12v %12v %12v | %7.2fx %7.2fx\n",
			q.ID, tFull, tNoFF, tScalar,
			float64(tNoFF)/float64(tFull), float64(tScalar)/float64(tFull))
	}
}

// sharedindex measures the structural-index stage: per paper query on
// its large record, a lazy run (per-word classification every pass)
// against a run borrowing a prebuilt index, the index build itself, and
// the content-keyed cache's hit path (hash + lookup + indexed run). The
// last two columns amortize the build across the paper's multi-query
// sets: all of the dataset's queries lazily back to back versus one
// build plus indexed runs.
func (h *harness) sharedindex() {
	fmt.Printf("\n== Shared structural index: repeated and multi-query runs ==\n")
	fmt.Printf("%-6s | %12s %12s %12s %12s | %12s %12s\n",
		"query", "lazy", "indexed", "build", "cache-hit", "multi-lazy", "multi-ixd")
	for _, q := range queries.All {
		data := h.large(q.Dataset)
		cq := jsonski.MustCompile(q.Large)
		tLazy := timeIt(func() { _, err := cq.Count(data); must(err) })

		ix := jsonski.BuildIndex(data)
		tIndexed := timeIt(func() { _, err := cq.RunIndexed(ix, nil); must(err) })
		ix.Release()
		tBuild := timeIt(func() { jsonski.BuildIndex(data).Release() })

		ic := jsonski.NewIndexCache(0)
		ic.Get(data).Release() // warm so every timed Get hits
		tCached := timeIt(func() {
			cix := ic.Get(data)
			_, err := cq.RunIndexed(cix, nil)
			must(err)
			cix.Release()
		})

		group := queries.ForDataset(q.Dataset)
		all := make([]*jsonski.Query, len(group))
		for i, g := range group {
			all[i] = jsonski.MustCompile(g.Large)
		}
		tMultiLazy := timeIt(func() {
			for _, g := range all {
				_, err := g.Count(data)
				must(err)
			}
		})
		tMultiIx := timeIt(func() {
			mix := jsonski.BuildIndex(data)
			for _, g := range all {
				_, err := g.RunIndexed(mix, nil)
				must(err)
			}
			mix.Release()
		})
		fmt.Printf("%-6s | %12v %12v %12v %12v | %12v %12v\n",
			q.ID, tLazy, tIndexed, tBuild, tCached, tMultiLazy, tMultiIx)
	}
}

func fmtBytes(n int) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
