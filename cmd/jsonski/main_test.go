package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"jsonski"
)

func TestRunOnFile(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	f := filepath.Join(dir, "in.json")
	if err := os.WriteFile(f, []byte(`{"a": {"b": 7}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, "$.a.b", "", true, true, false, 1, false, []string{f}); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, "", "", false, false, false, 1, false, []string{f}); err == nil {
		t.Fatal("missing query should error")
	}
	if err := run(ctx, "$..", "", false, false, false, 1, false, []string{f}); err == nil {
		t.Fatal("bad query should error")
	}
	if err := run(ctx, "$.a", "", false, false, false, 1, false, []string{f, f}); err == nil {
		t.Fatal("two files should error")
	}
	if err := run(ctx, "$.a", "", false, false, false, 1, false, []string{filepath.Join(dir, "missing.json")}); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestRunRecordsMode(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "in.ndjson")
	if err := os.WriteFile(f, []byte("{\"v\":1}\n\n{\"v\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "$.v", "", true, false, true, 0, false, []string{f}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMalformedInputFails(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"a": {"b": `), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(ctx, "$.a.b", "", false, false, false, 1, false, []string{bad})
	if err == nil || !strings.Contains(err.Error(), "query failed") {
		t.Fatalf("malformed JSON should fail clearly, got %v", err)
	}
}

func TestRunRecordsMalformedRecordNamesRecord(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	f := filepath.Join(dir, "bad.ndjson")
	in := "{\"v\": 1}\n{\"v\": {\n{\"v\": 3}\n"
	if err := os.WriteFile(f, []byte(in), 0o644); err != nil {
		t.Fatal(err)
	}
	// Serial so the failing record is deterministic.
	err := run(ctx, "$.v.x", "", false, false, true, 1, false, []string{f})
	if err == nil || !strings.Contains(err.Error(), "record 1:") {
		t.Fatalf("err = %v", err)
	}
}

// TestRunWorkersOnlyForStreamedRecords checks that -workers other than 1
// is rejected, naming the flag, wherever the CLI evaluates without the
// streamed record pool: a single document and -get. Streamed -records
// still takes any worker count.
func TestRunWorkersOnlyForStreamedRecords(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	f := filepath.Join(dir, "in.ndjson")
	if err := os.WriteFile(f, []byte("{\"v\":1}\n{\"v\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		query, get string
	}{
		{name: "single document", query: "$.v"},
		{name: "-get", get: "v"},
	} {
		for _, workers := range []int{0, 4} {
			err := run(ctx, tc.query, tc.get, true, false, false, workers, false, []string{f})
			if err == nil || !strings.Contains(err.Error(), "-workers") {
				t.Fatalf("%s with -workers %d: err = %v, want an error naming -workers", tc.name, workers, err)
			}
		}
	}
	for _, workers := range []int{0, 1, 4} {
		if err := run(ctx, "$.v", "", true, false, true, workers, false, []string{f}); err != nil {
			t.Fatalf("streamed -records with -workers %d: %v", workers, err)
		}
	}
}

func TestRunCancelledContext(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "in.ndjson")
	if err := os.WriteFile(f, []byte("{\"v\":1}\n{\"v\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, "$.v", "", false, false, true, 1, false, []string{f})
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("err = %v", err)
	}
	if errors.Is(err, context.Canceled) {
		// run wraps cancellation into a user-facing message; the cause
		// should no longer leak as a bare context error string.
		t.Log("cancellation cause preserved:", err)
	}
}

func TestRunGet(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	f := filepath.Join(dir, "in.json")
	if err := os.WriteFile(f, []byte(`{"a": {"b": [10, 20, 30]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, "", "a.b[2]", false, true, false, 1, false, []string{f}); err != nil {
		t.Fatal(err)
	}
	// explain composes with -get
	if err := run(ctx, "", "a.b[0]", false, false, false, 1, true, []string{f}); err != nil {
		t.Fatal(err)
	}

	// flag validation and navigation failures
	if err := run(ctx, "$.a", "a.b", false, false, false, 1, false, []string{f}); err == nil {
		t.Fatal("-q with -get should error")
	}
	if err := run(ctx, "", "a.b", false, false, true, 1, false, []string{f}); err == nil {
		t.Fatal("-get with -records should error")
	}
	if err := run(ctx, "", "a.nope", false, false, false, 1, false, []string{f}); err == nil {
		t.Fatal("missing path should error")
	}
	if err := run(ctx, "", "a.b[", false, false, false, 1, false, []string{f}); err == nil {
		t.Fatal("malformed path should error")
	}

	// A write that fails is an error, as on the -q paths: stdout here is
	// a file opened read-only.
	readOnly, err := os.Open(f)
	if err != nil {
		t.Fatal(err)
	}
	defer readOnly.Close()
	oldOut := os.Stdout
	os.Stdout = readOnly
	err = run(ctx, "", "a.b[2]", false, false, false, 1, false, []string{f})
	os.Stdout = oldOut
	if err == nil || !strings.Contains(err.Error(), "writing output:") {
		t.Fatalf("-get with an unwritable stdout: err = %v, want a writing output error", err)
	}
}

// TestRunStatsAndExplainOutput reads what -stats and -explain print.
// -stats renders the fast-forward accounting block to stderr, one line
// per figure and one per group, for a single document and for streamed
// records, serial and parallel alike. -explain leaves stdout as the
// plain run prints it, -count included, and dumps the movement trace to
// stderr.
func TestRunStatsAndExplainOutput(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	docData := []byte(`{"pad": {"x": [1, 2, 3]}, "items": [{"id": 1, "tag": "a"}, {"id": 2}, {"id": 3, "tag": "c"}]}`)
	doc := filepath.Join(dir, "in.json")
	if err := os.WriteFile(doc, docData, 0o644); err != nil {
		t.Fatal(err)
	}
	recs := filepath.Join(dir, "in.ndjson")
	if err := os.WriteFile(recs, []byte("{\"id\": 1}\n{\"x\": [1], \"id\": 2}\n\n{\"id\": 3}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const docQuery = "$.items[*].id"
	st, err := jsonski.MustCompile(docQuery).RunSinkExplain(docData, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var dump strings.Builder
	st.Trace().Dump(&dump)
	if dump.Len() == 0 {
		t.Fatal("the explain run recorded no movements")
	}

	statsLines := []string{"matches: 3", "input: ", "fast-forwarded: ",
		"  G1: ", "  G2: ", "  G3: ", "  G4: ", "  G5: ", "scanned: "}
	for _, c := range []struct {
		name                           string
		query                          string
		count, stats, records, explain bool
		workers                        int
		input                          string
		stdout                         string // lines sorted
	}{
		{name: "-stats single document", query: docQuery, stats: true, workers: 1, input: doc, stdout: "1\n2\n3\n"},
		{name: "-stats -records -workers 1", query: "$.id", stats: true, records: true, workers: 1, input: recs, stdout: "1\n2\n3\n"},
		{name: "-stats -records -workers 2", query: "$.id", stats: true, records: true, workers: 2, input: recs, stdout: "1\n2\n3\n"},
		{name: "-explain", query: docQuery, explain: true, workers: 1, input: doc, stdout: "1\n2\n3\n"},
		{name: "-count -explain", query: docQuery, count: true, explain: true, workers: 1, input: doc, stdout: "3\n"},
	} {
		call := func(explain bool) (string, string) {
			stdout, stderr, err := captureOutput(t, func() error {
				return run(ctx, c.query, "", c.count, c.stats, c.records, c.workers, explain, []string{c.input})
			})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return stdout, stderr
		}
		stdout, stderr := call(c.explain)
		lines := strings.SplitAfter(stdout, "\n")
		sort.Strings(lines)
		if got := strings.Join(lines, ""); got != c.stdout {
			t.Errorf("%s: stdout %q, want %q", c.name, stdout, c.stdout)
		}
		if c.explain {
			if plain, _ := call(false); stdout != plain {
				t.Errorf("%s: stdout %q, the plain run's %q", c.name, stdout, plain)
			}
			if stderr != dump.String() {
				t.Errorf("%s: stderr\n%s\nwant the trace dump\n%s", c.name, stderr, dump.String())
			}
		}
		if c.stats {
			got := strings.Split(strings.TrimSuffix(stderr, "\n"), "\n")
			if len(got) != len(statsLines) {
				t.Errorf("%s: stderr has %d lines, want %d:\n%s", c.name, len(got), len(statsLines), stderr)
				continue
			}
			for i, prefix := range statsLines {
				if !strings.HasPrefix(got[i], prefix) {
					t.Errorf("%s: stderr line %d is %q, want it to start %q", c.name, i, got[i], prefix)
				}
			}
		}
	}
}

// captureOutput runs call with os.Stdout and os.Stderr sent to files, and
// returns what it printed on each.
func captureOutput(t *testing.T, call func() error) (stdout, stderr string, err error) {
	t.Helper()
	dir := t.TempDir()
	var files [2]*os.File
	for i, name := range []string{"stdout", "stderr"} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		files[i] = f
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = files[0], files[1]
	func() {
		defer func() { os.Stdout, os.Stderr = oldOut, oldErr }()
		err = call()
	}()
	var out [2][]byte
	for i, f := range files {
		var rerr error
		if out[i], rerr = os.ReadFile(f.Name()); rerr != nil {
			t.Fatal(rerr)
		}
	}
	return string(out[0]), string(out[1]), err
}

// inputKinds are the three ways the CLI gets one input file: as a path
// argument, as stdin redirected from the file, and as stdin from a pipe.
var inputKinds = []string{"path", "stdin-file", "stdin-pipe"}

// runOnInput calls the CLI with the file at path fed in the given way,
// and returns what it printed on stdout.
func runOnInput(t *testing.T, kind, path string, call func(args []string) error) (string, error) {
	t.Helper()
	stdout, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	oldIn, oldOut := os.Stdin, os.Stdout
	defer func() { os.Stdin, os.Stdout = oldIn, oldOut }()
	os.Stdout = stdout

	var args []string
	switch kind {
	case "path":
		args = []string{path}
	case "stdin-file":
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		os.Stdin = f
	case "stdin-pipe":
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			w.Write(data) // fails only if the reader gave up; run's error says why
			w.Close()
		}()
		defer func() { r.Close(); <-wrote }()
		os.Stdin = r
	}
	runErr := call(args)
	out, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestRunInputKindsGiveSameOutput feeds one document to -q and -get as a
// path, as redirected stdin and through a pipe: the sized read and the
// pipe's fallback must print byte-identical output. The document and
// its output both exceed a pipe's 64 KiB, so the pipe is read in
// several pieces and stdout is flushed more than once.
func TestRunInputKindsGiveSameOutput(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	var doc strings.Builder
	doc.WriteString(`{"items": [`)
	for i := 0; i < 3000; i++ {
		if i > 0 {
			doc.WriteString(", ")
		}
		fmt.Fprintf(&doc, `{"id": %d, "tags": [1, 2, 3], "name": "item %04d %s"}`, i, i, strings.Repeat("x", 32))
	}
	doc.WriteString(`], "a": {"b": 7}}`)
	f := filepath.Join(dir, "in.json")
	if err := os.WriteFile(f, []byte(doc.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	ops := []struct {
		name string
		call func(args []string) error
	}{
		{"query", func(args []string) error {
			return run(ctx, "$.items[*].name", "", false, false, false, 1, false, args)
		}},
		{"get", func(args []string) error {
			return run(ctx, "", "items[2999].name", false, false, false, 1, false, args)
		}},
	}
	for _, op := range ops {
		var want string
		for _, kind := range inputKinds {
			got, err := runOnInput(t, kind, f, op.call)
			if err != nil {
				t.Fatalf("%s over %s: %v", op.name, kind, err)
			}
			if kind == inputKinds[0] {
				want = got
				if len(want) == 0 {
					t.Fatalf("%s over %s printed nothing", op.name, kind)
				}
				continue
			}
			if got != want {
				t.Errorf("%s over %s printed %d bytes, over %s %d bytes", op.name, kind, len(got), inputKinds[0], len(want))
			}
		}
	}
	// An empty input fails in the engine whichever way it arrives; a
	// directory fails the read.
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		for _, kind := range inputKinds {
			_, err := runOnInput(t, kind, empty, op.call)
			if err == nil || !strings.Contains(err.Error(), "core: empty input") {
				t.Errorf("%s over empty %s: err = %v", op.name, kind, err)
			}
		}
		for _, kind := range inputKinds[:2] {
			_, err := runOnInput(t, kind, dir, op.call)
			if err == nil || !strings.Contains(err.Error(), "reading input:") {
				t.Errorf("%s over a directory as %s: err = %v", op.name, kind, err)
			}
		}
	}
}

// TestReadInputAllocatesOnce pins the sized read, the fallback for
// regular files that are not mapped and for systems without mmap: over
// a 2 MiB regular file readSized allocates the input once, plus at most
// a page for the EOF probe and bookkeeping. io.ReadAll's growth
// allocates about five times the input. readInput maps the same file
// instead, where mmap exists: the same bytes, with under a page of heap.
func TestReadInputAllocatesOnce(t *testing.T) {
	const size = 2 << 20
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i % 251)
	}
	path := filepath.Join(t.TempDir(), "in.json")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	// A GC cycle the read triggered would charge the runtime's own
	// allocations (mark workers, sweep bookkeeping) to the read.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// heap reads the file three times and returns the least heap a read
	// allocated: TotalAlloc counts every goroutine's allocations, and
	// one that runs during a read can only add to it.
	heap := func(read func(f *os.File) (*input, error)) (mapped bool, least uint64) {
		least = math.MaxUint64
		for range 3 {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			in, err := read(f)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(in.data, want) {
				t.Fatalf("read %d bytes, not the file's %d", len(in.data), size)
			}
			mapped = in.file != nil
			in.release()
			f.Close()
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return mapped, least
	}

	_, alloc := heap(func(f *os.File) (*input, error) {
		data, err := readSized(f, size)
		return &input{data: data}, err
	})
	if alloc > size+4<<10 {
		t.Fatalf("the sized read of %d bytes allocated %d bytes, want at most %d", size, alloc, size+4<<10)
	}

	mapped, alloc := heap(func(f *os.File) (*input, error) {
		return readInput(context.Background(), f)
	})
	if !mapped {
		if runtime.GOOS == "linux" {
			t.Fatal("readInput read a regular file instead of mapping it")
		}
		return // no mmap here: readInput took the sized read
	}
	if alloc >= 4<<10 {
		t.Fatalf("mapping %d bytes allocated %d bytes of heap, want under %d", size, alloc, 4<<10)
	}
}
