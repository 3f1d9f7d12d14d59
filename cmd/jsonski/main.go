// Command jsonski evaluates a JSONPath expression over a JSON file in a
// single streaming pass, printing each match on its own line.
//
// Usage:
//
//	jsonski -q '$.place.name' file.json
//	cat file.json | jsonski -q '$[*].text' -count -stats
//	jsonski -q '$.store.book[2].title' -explain file.json
//
// With -records the input is treated as newline-delimited JSON (one
// record per line), streamed rather than slurped, and -workers enables
// parallel record processing; -stats then includes per-record latency
// quantiles. -workers applies to nothing else: with a single document,
// -get, -save-index or -load-index, a value other than 1 is an error.
// With -explain (single-document input only) the fast-forward
// movements are dumped to stderr: which function skipped which byte
// range, charged to which paper group, in which automaton state.
// Malformed input exits non-zero with the offending record named;
// Ctrl-C cancels cleanly between records.
//
// A single document, given as a file or redirected to stdin, is read
// into one buffer sized to the file; a pipe is read as it comes.
//
// -save-index persists the input's structural index (document bytes,
// bitmaps, and — with -records — the per-record table) as a checksummed
// sidecar once the evaluation succeeds; -load-index evaluates against
// such a sidecar instead of an input file, memory-mapping the prebuilt
// masks:
//
//	jsonski -q '$.a' -save-index file.jski file.json
//	jsonski -q '$.b' -load-index file.jski
//	jsonski -q '$.v' -records -save-index corpus.jski corpus.ndjson
//	jsonski -q '$.v' -records -load-index corpus.jski
//
// -get navigates a single document on demand instead of compiling a
// query: a dot path like 'store.book[2].title' hops straight to one
// value with the same fast-forward movements, printing its raw span.
// It composes with -stats, -explain, and -load-index:
//
//	jsonski -get 'store.book[2].title' file.json
//	jsonski -get 'store.book[2].title' -explain -load-index file.jski
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"jsonski"
	"jsonski/internal/telemetry"
)

func main() {
	var (
		query   = flag.String("q", "", "JSONPath query, e.g. '$.store.book[0:2].title'")
		get     = flag.String("get", "", "on-demand dot path, e.g. 'store.book[2].title' (single document; instead of -q)")
		count   = flag.Bool("count", false, "print only the number of matches")
		stats   = flag.Bool("stats", false, "print fast-forward statistics to stderr")
		records = flag.Bool("records", false, "input is newline-delimited JSON records")
		workers = flag.Int("workers", 1, "parallel workers for streamed -records (0 = GOMAXPROCS); any other mode accepts only 1")
		explain = flag.Bool("explain", false, "dump the fast-forward movement trace to stderr (single document only)")
		saveIx  = flag.String("save-index", "", "persist the input's structural index to this sidecar file after evaluating")
		loadIx  = flag.String("load-index", "", "evaluate against a sidecar written by -save-index instead of an input file")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("jsonski", telemetry.BuildInfo().Version())
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *query, *get, *count, *stats, *records, *workers, *explain, *saveIx, *loadIx, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "jsonski:", err)
		os.Exit(1)
	}
}

// stdoutSize is the stdout buffer: the Linux pipe size, so a large result
// leaves in pipe-sized write(2) calls instead of 4 KiB ones.
const stdoutSize = 64 << 10

func run(ctx context.Context, query, get string, countOnly, showStats, records bool, workers int, explain bool, saveIx, loadIx string, args []string) error {
	if workers != 1 && (!records || get != "" || saveIx != "" || loadIx != "") {
		return fmt.Errorf("-workers applies only to streamed -records (without -get, -save-index or -load-index); drop -workers")
	}
	if get != "" {
		if query != "" {
			return fmt.Errorf("-q and -get are mutually exclusive")
		}
		if records {
			return fmt.Errorf("-get navigates a single document; drop -records")
		}
		if saveIx != "" {
			return fmt.Errorf("-get does not persist indexes; use -q with -save-index first, then -get with -load-index")
		}
		return runGet(ctx, get, showStats, explain, loadIx, args)
	}
	if query == "" {
		return fmt.Errorf("missing -q query (or -get path)")
	}
	if explain && records {
		return fmt.Errorf("-explain applies to single documents; drop -records or explain one record at a time")
	}
	if explain && (saveIx != "" || loadIx != "") {
		return fmt.Errorf("-explain traces a direct evaluation; drop -save-index/-load-index")
	}
	if saveIx != "" && loadIx != "" {
		return fmt.Errorf("-save-index and -load-index are mutually exclusive")
	}
	if loadIx != "" && len(args) > 0 {
		return fmt.Errorf("-load-index evaluates the document embedded in the sidecar; drop the input file")
	}
	q, err := jsonski.Compile(query)
	if err != nil {
		return err
	}
	in, err := openInput(args)
	if err != nil {
		return err
	}
	if in != os.Stdin {
		defer in.Close()
	}

	out := bufio.NewWriterSize(os.Stdout, stdoutSize)
	// Matched values stream from the input buffer straight to stdout; the
	// mutex-guarded callback form exists only for the parallel record
	// path, where matches arrive from several goroutines.
	var sink jsonski.Sink
	var emit func(m jsonski.Match)
	if !countOnly {
		sink = jsonski.NewStreamSink(out)
		var mu sync.Mutex
		emit = func(m jsonski.Match) {
			mu.Lock()
			out.Write(m.Value)
			out.WriteByte('\n')
			mu.Unlock()
		}
	}

	start := time.Now()
	var st jsonski.Stats
	if loadIx != "" || saveIx != "" {
		st, err = runWithStore(ctx, q, in, records, saveIx, loadIx, sink)
	} else if records {
		// Stream records instead of slurping the file: memory stays
		// bounded by the largest record, and ctx aborts between records.
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers == 1 {
			st, err = q.RunReaderSink(ctx, in, sink)
		} else {
			st, err = q.RunReaderParallelContext(ctx, in, workers, emit)
		}
	} else {
		var data []byte
		if data, err = readInput(ctx, in); err != nil {
			return err
		}
		if explain {
			st, err = q.RunExplain(data, 0, emit)
		} else {
			st, err = q.RunSink(data, sink)
		}
	}
	elapsed := time.Since(start)
	if err != nil {
		// Matches already streamed stay on stdout; flush them so the
		// partial output is usable, then fail loudly.
		out.Flush()
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("interrupted after %d matches", st.Matches)
		}
		return fmt.Errorf("query failed: %w", err)
	}
	if countOnly {
		fmt.Fprintln(out, st.Matches)
	}
	if tr := st.Trace(); tr != nil {
		tr.Dump(os.Stderr)
	}
	if showStats {
		printStats(st, elapsed)
	}
	if err := out.Flush(); err != nil {
		return fmt.Errorf("writing output: %w", err)
	}
	return nil
}

// runWithStore handles the sidecar entry points: -load-index evaluates
// the document (or per-record windows) embedded in a mapped sidecar;
// -save-index slurps the input, evaluates it through a freshly built
// index, and, only if that succeeds, persists the index for later
// -load-index runs, so malformed input leaves no sidecar behind.
func runWithStore(ctx context.Context, q *jsonski.Query, in *os.File, records bool, saveIx, loadIx string, sink jsonski.Sink) (jsonski.Stats, error) {
	if loadIx != "" {
		ix, spans, err := jsonski.LoadIndex(loadIx)
		if err != nil {
			return jsonski.Stats{}, err
		}
		defer ix.Release()
		return runIndexed(q, ix, spans, records, sink)
	}
	data, err := readInput(ctx, in)
	if err != nil {
		return jsonski.Stats{}, err
	}
	var spans []jsonski.Span
	if records {
		spans = jsonski.RecordSpans(data)
	}
	ix := jsonski.BuildIndex(data)
	defer ix.Release()
	st, err := runIndexed(q, ix, spans, records, sink)
	if err != nil {
		return st, err
	}
	if err := jsonski.SaveIndex(saveIx, ix, spans); err != nil {
		return st, fmt.Errorf("saving index: %w", err)
	}
	return st, nil
}

// runIndexed evaluates over an index: one window per record span when a
// record table is present (each window borrows the whole-corpus masks),
// the whole document otherwise. Per-record runs leave the sink
// unflushed, so a record run writes its output once, at the end.
func runIndexed(q *jsonski.Query, ix *jsonski.Index, spans []jsonski.Span, records bool, sink jsonski.Sink) (jsonski.Stats, error) {
	if !records || len(spans) == 0 {
		return q.RunIndexedSink(ix, sink)
	}
	perRecord := sink
	if sink != nil {
		perRecord = noFlush{sink}
	}
	var (
		total jsonski.Stats
		err   error
	)
	for i, sp := range spans {
		st, rerr := q.RunIndexedWindowSink(ix, int(sp.Start), int(sp.End), perRecord)
		total.Matches += st.Matches
		total.InputBytes += st.InputBytes
		for g := range total.SkippedBytes {
			total.SkippedBytes[g] += st.SkippedBytes[g]
		}
		if rerr != nil {
			err = fmt.Errorf("record %d: %w", i, rerr)
			break
		}
	}
	if sink != nil {
		if ferr := sink.Flush(); err == nil {
			err = ferr
		}
	}
	return total, err
}

// noFlush hides a sink's Flush from the per-record runs of runIndexed.
type noFlush struct{ jsonski.Sink }

func (noFlush) Flush() error { return nil }

// printStats renders the fast-forward accounting block to stderr, shared
// by the query and -get paths.
func printStats(st jsonski.Stats, elapsed time.Duration) {
	fmt.Fprintf(os.Stderr, "matches: %d\n", st.Matches)
	fmt.Fprintf(os.Stderr, "input: %d bytes in %v (%.0f MB/s)\n",
		st.InputBytes, elapsed, float64(st.InputBytes)/elapsed.Seconds()/1e6)
	fmt.Fprintf(os.Stderr, "fast-forwarded: %.2f%% of input\n", st.FastForwardRatio()*100)
	for g := 0; g < 5; g++ {
		fmt.Fprintf(os.Stderr, "  G%d: %6.2f%%  (%d bytes)\n", g+1, st.GroupRatio(g)*100, st.SkippedBytes[g])
	}
	scanned := st.ScannedBytes()
	skipped := st.InputBytes - scanned
	skipRatio := 0.0
	if st.InputBytes > 0 {
		skipRatio = float64(skipped) / float64(st.InputBytes)
	}
	fmt.Fprintf(os.Stderr, "scanned: %d bytes, skip ratio %.4f\n", scanned, skipRatio)
	if lat := st.Latency(); lat != nil {
		fmt.Fprintf(os.Stderr, "record latency: p50 %v  p90 %v  p99 %v  max %v (%d records)\n",
			lat.P50(), lat.P90(), lat.P99(), lat.Max(), lat.Count)
	}
}

// runGet evaluates an on-demand dot path over a single document: the
// lazy Document API hops straight to the target with the same
// fast-forward movements a compiled query would use, so the rest of the
// record is skipped, never parsed.
func runGet(ctx context.Context, path string, showStats, explain bool, loadIx string, args []string) error {
	segs, err := jsonski.ParseDotPath(path)
	if err != nil {
		return err
	}
	var doc *jsonski.Document
	start := time.Now()
	if loadIx != "" {
		if len(args) > 0 {
			return fmt.Errorf("-load-index evaluates the document embedded in the sidecar; drop the input file")
		}
		ix, _, err := jsonski.LoadIndex(loadIx)
		if err != nil {
			return err
		}
		defer ix.Release()
		doc = jsonski.OpenIndexed(ix)
	} else {
		in, err := openInput(args)
		if err != nil {
			return err
		}
		if in != os.Stdin {
			defer in.Close()
		}
		data, err := readInput(ctx, in)
		if err != nil {
			return err
		}
		doc = jsonski.Open(data)
	}
	if explain {
		doc.Explain(0)
	}
	raw, err := doc.Lookup(segs...).Raw()
	if err != nil {
		return fmt.Errorf("get %s: %w", path, err)
	}
	if err := doc.Close(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	os.Stdout.Write(raw)
	os.Stdout.Write([]byte{'\n'})
	st := doc.Stats()
	if tr := st.Trace(); tr != nil {
		tr.Dump(os.Stderr)
	}
	if showStats {
		printStats(st, elapsed)
	}
	return nil
}

// openInput opens the input args names: the one file given, or stdin.
func openInput(args []string) (*os.File, error) {
	switch len(args) {
	case 0:
		return os.Stdin, nil
	case 1:
		return os.Open(args[0])
	}
	return nil, fmt.Errorf("expected at most one input file, got %d", len(args))
}

// readInput reads the whole of a single-document input, for the query,
// -save-index and -get paths (-records streams instead). A regular file,
// given as a path or redirected to stdin, is read into one buffer sized
// by Stat, as os.ReadFile does: the input is allocated and copied once,
// where io.ReadAll's growth copies it several times and lets the GC run
// while it reads. A pipe or terminal falls back to io.ReadAll.
func readInput(ctx context.Context, in *os.File) ([]byte, error) {
	data, err := readAll(in)
	if err != nil {
		return nil, fmt.Errorf("reading input: %w", err)
	}
	return data, ctx.Err()
}

func readAll(f *os.File) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		return io.ReadAll(f)
	}
	data := make([]byte, fi.Size())
	n, err := io.ReadFull(f, data)
	switch err {
	case nil:
		// Full: the file may have grown since Stat (or reports size 0,
		// as /proc files do). At EOF this costs one read and 512 bytes.
		rest, err := io.ReadAll(f)
		return append(data, rest...), err
	case io.EOF, io.ErrUnexpectedEOF:
		// Short: the file shrank, or stdin was not at its start.
		return data[:n], nil
	}
	return nil, err
}
