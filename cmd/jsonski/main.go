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
// parallel record processing. -workers applies to nothing else: with a
// single document or -get, a value other than 1 is an error.
// With -explain (single-document input only) the fast-forward
// movements are dumped to stderr: which function skipped which byte
// range, charged to which paper group, in which automaton state.
// Malformed input exits non-zero with the offending record named;
// Ctrl-C cancels cleanly between records.
//
// A single document, given as a file or redirected to stdin, is mapped
// read-only and evaluated in place, with no copy into the heap; a file
// that shrinks while mapped is reported as an error. A pipe is read as
// it comes.
//
// -get navigates a single document on demand instead of compiling a
// query: a dot path like 'store.book[2].title' hops straight to one
// value with the same fast-forward movements, printing its raw span.
// It composes with -stats and -explain:
//
//	jsonski -get 'store.book[2].title' file.json
//	jsonski -get 'store.book[2].title' -explain file.json
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
	"runtime/debug"
	"sync"
	"syscall"
	"time"
	"unsafe"

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
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("jsonski", telemetry.BuildInfo().Version())
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *query, *get, *count, *stats, *records, *workers, *explain, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "jsonski:", err)
		os.Exit(1)
	}
}

// stdoutSize is the stdout buffer: the Linux pipe size, so a large result
// leaves in pipe-sized write(2) calls instead of 4 KiB ones.
const stdoutSize = 64 << 10

func run(ctx context.Context, query, get string, countOnly, showStats, records bool, workers int, explain bool, args []string) error {
	if workers != 1 && (!records || get != "") {
		return fmt.Errorf("-workers applies only to streamed -records (without -get); drop -workers")
	}
	if get != "" {
		if query != "" {
			return fmt.Errorf("-q and -get are mutually exclusive")
		}
		if records {
			return fmt.Errorf("-get navigates a single document; drop -records")
		}
		return runGet(ctx, get, showStats, explain, args)
	}
	if query == "" {
		return fmt.Errorf("missing -q query (or -get path)")
	}
	if explain && records {
		return fmt.Errorf("-explain applies to single documents; drop -records or explain one record at a time")
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
	if records {
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
		var doc *input
		if doc, err = readInput(ctx, in); err != nil {
			return err
		}
		defer doc.release()
		st, err = doc.query(q, sink, explain)
	}
	elapsed := time.Since(start)
	if err != nil {
		// Matches already streamed stay on stdout; flush them so the
		// partial output is usable, then fail loudly.
		out.Flush()
		switch {
		case errors.Is(err, context.Canceled):
			return fmt.Errorf("interrupted after %d matches", st.Matches)
		case errors.Is(err, errShrank):
			return err
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
}

// runGet evaluates an on-demand dot path over a single document: the
// lazy Document API hops straight to the target with the same
// fast-forward movements a compiled query would use, so the rest of the
// record is skipped, never parsed.
func runGet(ctx context.Context, path string, showStats, explain bool, args []string) error {
	segs, err := jsonski.ParseDotPath(path)
	if err != nil {
		return err
	}
	start := time.Now()
	in, err := openInput(args)
	if err != nil {
		return err
	}
	if in != os.Stdin {
		defer in.Close()
	}
	doc, err := readInput(ctx, in)
	if err != nil {
		return err
	}
	defer doc.release()
	st, err := doc.get(path, segs, explain, os.Stdout)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
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

// readInput returns the whole of a single-document input, for the query
// and -get paths (-records streams instead). A regular file of known
// size, given as a path or redirected to stdin at its start, is mapped
// read-only over the size Stat reports: the engine reads the file's
// pages in place, and no byte is copied into the heap first. Bytes
// appended after the Stat are not evaluated. Other regular files (empty
// or /proc-style ones, stdin past its start, a failed map, a system
// without mmap) go through readSized; a pipe or terminal falls back to
// io.ReadAll. The caller releases the input after stdout is flushed.
func readInput(ctx context.Context, f *os.File) (*input, error) {
	in, err := load(f)
	if err != nil {
		return nil, fmt.Errorf("reading input: %w", err)
	}
	if err := ctx.Err(); err != nil {
		in.release()
		return nil, err
	}
	return in, nil
}

func load(f *os.File) (*input, error) {
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		data, err := io.ReadAll(f)
		return &input{data: data}, err
	}
	if off, err := f.Seek(0, io.SeekCurrent); err == nil && off == 0 {
		if data, ok := mapFile(f, fi.Size()); ok {
			return &input{data: data, file: f}, nil
		}
	}
	data, err := readSized(f, fi.Size())
	return &input{data: data}, err
}

// readSized reads f, a regular file Stat found size bytes long, into one
// buffer of that size, as os.ReadFile does: the input is allocated and
// copied once, where io.ReadAll's growth copies it several times and
// lets the GC run while it reads.
func readSized(f *os.File, size int64) ([]byte, error) {
	data := make([]byte, size)
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

// input is a single document's bytes: a read-only mapping of its file,
// or a buffer on the heap.
type input struct {
	data []byte
	file *os.File // the file mapped at data; nil when data was read
}

// release unmaps a mapped input; nothing may read its bytes after.
func (in *input) release() {
	if in.file != nil {
		unmap(in.data)
	}
}

// errShrank marks the error of a mapped input whose file shrank while
// the engine read it.
var errShrank = errors.New("shrank")

// query runs q over the document into sink, under the fault guard.
func (in *input) query(q *jsonski.Query, sink jsonski.Sink, explain bool) (st jsonski.Stats, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer in.guard(&err)
	if explain {
		return q.RunSinkExplain(in.data, sink, 0)
	}
	return q.RunSink(in.data, sink)
}

// get writes the raw value at segs, and a newline, to w, under the
// fault guard. path is segs as the user wrote them.
func (in *input) get(path string, segs []string, explain bool, w io.Writer) (st jsonski.Stats, err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer in.guard(&err)
	doc := jsonski.Open(in.data)
	if explain {
		doc.Explain(0)
	}
	raw, err := doc.Lookup(segs...).Raw()
	if err != nil {
		return st, fmt.Errorf("get %s: %w", path, err)
	}
	if err := doc.Close(); err != nil {
		return st, err
	}
	if _, err := w.Write(raw); err != nil {
		return st, fmt.Errorf("writing output: %w", err)
	}
	if _, err := w.Write([]byte{'\n'}); err != nil {
		return st, fmt.Errorf("writing output: %w", err)
	}
	return doc.Stats(), nil
}

// guard is deferred, after debug.SetPanicOnFault(true), by code that
// reads the document's bytes; err points at that code's result. Pages
// of a mapped file past a new, shorter end fault, and the page that
// holds the new end reads as zeros past it. So whenever a fresh Stat
// finds the file shorter than its mapping, guard reports that in place
// of the code's own result, and recovers the fault if the panic is one
// inside the mapping. It raises every other panic again: a bug is never
// reported as an input error.
func (in *input) guard(err *error) {
	r := recover()
	if in.file != nil && (r == nil || in.holds(r)) {
		if fi, serr := in.file.Stat(); serr == nil && fi.Size() < int64(len(in.data)) {
			*err = fmt.Errorf("reading input: %s %w from %d to %d bytes while mapped",
				in.file.Name(), errShrank, len(in.data), fi.Size())
			return
		}
	}
	if r != nil {
		panic(r)
	}
}

// holds reports whether the panic r is a fault at an address inside the
// mapping.
func (in *input) holds(r any) bool {
	fault, ok := r.(interface{ Addr() uintptr })
	base := uintptr(unsafe.Pointer(unsafe.SliceData(in.data)))
	return ok && fault.Addr()-base < uintptr(len(in.data))
}
