package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
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
	if err := run(ctx, "$.a.b", "", true, true, false, 1, false, "", "", []string{f}); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, "", "", false, false, false, 1, false, "", "", []string{f}); err == nil {
		t.Fatal("missing query should error")
	}
	if err := run(ctx, "$..", "", false, false, false, 1, false, "", "", []string{f}); err == nil {
		t.Fatal("bad query should error")
	}
	if err := run(ctx, "$.a", "", false, false, false, 1, false, "", "", []string{f, f}); err == nil {
		t.Fatal("two files should error")
	}
	if err := run(ctx, "$.a", "", false, false, false, 1, false, "", "", []string{filepath.Join(dir, "missing.json")}); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestRunRecordsMode(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "in.ndjson")
	if err := os.WriteFile(f, []byte("{\"v\":1}\n\n{\"v\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "$.v", "", true, false, true, 0, false, "", "", []string{f}); err != nil {
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
	err := run(ctx, "$.a.b", "", false, false, false, 1, false, "", "", []string{bad})
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
	err := run(ctx, "$.v.x", "", false, false, true, 1, false, "", "", []string{f})
	if err == nil || !strings.Contains(err.Error(), "record 1:") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunSaveLoadIndex(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	f := filepath.Join(dir, "in.json")
	side := filepath.Join(dir, "in.jski")
	if err := os.WriteFile(f, []byte(`{"a": {"b": 7}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Save evaluates and persists; load evaluates the embedded document.
	if err := run(ctx, "$.a.b", "", true, false, false, 1, false, side, "", []string{f}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(side); err != nil {
		t.Fatalf("sidecar not written: %v", err)
	}
	if err := run(ctx, "$.a.b", "", true, false, false, 1, false, "", side, nil); err != nil {
		t.Fatal(err)
	}

	// Flag validation.
	if err := run(ctx, "$.a", "", false, false, false, 1, false, side, side, nil); err == nil {
		t.Fatal("save+load together should error")
	}
	if err := run(ctx, "$.a", "", false, false, false, 1, true, side, "", []string{f}); err == nil {
		t.Fatal("explain with save-index should error")
	}
	if err := run(ctx, "$.a", "", false, false, false, 1, false, "", side, []string{f}); err == nil {
		t.Fatal("load-index with input file should error")
	}
	if err := run(ctx, "$.a", "", false, false, false, 1, false, "", filepath.Join(dir, "missing.jski"), nil); err == nil {
		t.Fatal("missing sidecar should error")
	}
}

func TestRunSaveLoadIndexRecords(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	f := filepath.Join(dir, "in.ndjson")
	side := filepath.Join(dir, "in.jski")
	if err := os.WriteFile(f, []byte("{\"v\":1}\n\n{\"v\":2}\n{\"v\":3}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, "$.v", "", true, true, true, 1, false, side, "", []string{f}); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, "$.v", "", true, true, true, 1, false, "", side, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunWorkersOnlyForStreamedRecords checks that -workers other than 1
// is rejected, naming the flag, wherever the CLI evaluates without the
// streamed record pool: a single document, -get, -save-index and
// -load-index. Streamed -records still takes any worker count.
func TestRunWorkersOnlyForStreamedRecords(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	f := filepath.Join(dir, "in.ndjson")
	side := filepath.Join(dir, "in.jski")
	if err := os.WriteFile(f, []byte("{\"v\":1}\n{\"v\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, "$.v", "", true, false, true, 1, false, side, "", []string{f}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		query, get     string
		records        bool
		saveIx, loadIx string
		args           []string
	}{
		{name: "single document", query: "$.v", args: []string{f}},
		{name: "-get", get: "v", args: []string{f}},
		{name: "-save-index", query: "$.v", records: true, saveIx: filepath.Join(dir, "out.jski"), args: []string{f}},
		{name: "-load-index", query: "$.v", records: true, loadIx: side},
	} {
		for _, workers := range []int{0, 4} {
			err := run(ctx, tc.query, tc.get, true, false, tc.records, workers, false, tc.saveIx, tc.loadIx, tc.args)
			if err == nil || !strings.Contains(err.Error(), "-workers") {
				t.Fatalf("%s with -workers %d: err = %v, want an error naming -workers", tc.name, workers, err)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "out.jski")); !os.IsNotExist(err) {
		t.Fatalf("rejected -save-index run left a sidecar: %v", err)
	}
	for _, workers := range []int{0, 1, 4} {
		if err := run(ctx, "$.v", "", true, false, true, workers, false, "", "", []string{f}); err != nil {
			t.Fatalf("streamed -records with -workers %d: %v", workers, err)
		}
	}
}

// flushCounter is a flushable writer that counts its flushes: on stdout
// each one is a write(2).
type flushCounter struct {
	bytes.Buffer
	flushes int
}

func (f *flushCounter) Flush() error { f.flushes++; return nil }

// TestRunIndexedFlushesOnce drives a record run over a loaded sidecar:
// every record's matches arrive, and the output is flushed once for the
// whole run, not once per record.
func TestRunIndexedFlushesOnce(t *testing.T) {
	data := []byte("{\"v\":1}\n{\"v\":2}\n{\"v\":3}\n")
	side := filepath.Join(t.TempDir(), "in.jski")
	built := jsonski.BuildIndex(data)
	err := jsonski.SaveIndex(side, built, jsonski.RecordSpans(data))
	built.Release()
	if err != nil {
		t.Fatal(err)
	}
	ix, spans, err := jsonski.LoadIndex(side)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Release()
	if len(spans) != 3 {
		t.Fatalf("sidecar holds %d records, want 3", len(spans))
	}
	var out flushCounter
	st, err := runIndexed(jsonski.MustCompile("$.v"), ix, spans, true, jsonski.NewStreamSink(&out))
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != 3 || out.String() != "1\n2\n3\n" {
		t.Fatalf("matches %d, output %q", st.Matches, out.String())
	}
	if out.flushes != 1 {
		t.Fatalf("flushed %d times, want once per run", out.flushes)
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
	err := run(ctx, "$.v", "", false, false, true, 1, false, "", "", []string{f})
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
	side := filepath.Join(dir, "in.jski")
	if err := os.WriteFile(f, []byte(`{"a": {"b": [10, 20, 30]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, "", "a.b[2]", false, true, false, 1, false, "", "", []string{f}); err != nil {
		t.Fatal(err)
	}
	// explain composes with -get
	if err := run(ctx, "", "a.b[0]", false, false, false, 1, true, "", "", []string{f}); err != nil {
		t.Fatal(err)
	}
	// -get over a sidecar index
	if err := run(ctx, "$.a.b", "", true, false, false, 1, false, side, "", []string{f}); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, "", "a.b[1]", false, false, false, 1, false, "", side, nil); err != nil {
		t.Fatal(err)
	}

	// flag validation and navigation failures
	if err := run(ctx, "$.a", "a.b", false, false, false, 1, false, "", "", []string{f}); err == nil {
		t.Fatal("-q with -get should error")
	}
	if err := run(ctx, "", "a.b", false, false, true, 1, false, "", "", []string{f}); err == nil {
		t.Fatal("-get with -records should error")
	}
	if err := run(ctx, "", "a.b", false, false, false, 1, false, side, "", []string{f}); err == nil {
		t.Fatal("-get with -save-index should error")
	}
	if err := run(ctx, "", "a.nope", false, false, false, 1, false, "", "", []string{f}); err == nil {
		t.Fatal("missing path should error")
	}
	if err := run(ctx, "", "a.b[", false, false, false, 1, false, "", "", []string{f}); err == nil {
		t.Fatal("malformed path should error")
	}
}

// TestRunSaveIndexMalformedLeavesNoSidecar pins the -save-index order:
// the input is evaluated first and persisted only on success, so
// malformed or empty input fails without writing a sidecar.
func TestRunSaveIndexMalformedLeavesNoSidecar(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	for _, tc := range []struct {
		name, in string
		records  bool
	}{
		{"malformed", `{"a": {"b": `, false},
		{"empty", "", false},
		{"malformed-record", "{\"a\": 1}\n{\"a\": {\"b\": \n", true},
	} {
		f := filepath.Join(dir, tc.name+".json")
		side := filepath.Join(dir, tc.name+".jski")
		if err := os.WriteFile(f, []byte(tc.in), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run(ctx, "$.a.b", "", false, false, tc.records, 1, false, side, "", []string{f})
		if err == nil || !strings.Contains(err.Error(), "query failed") {
			t.Errorf("%s: err = %v, want a query failure", tc.name, err)
		}
		if _, err := os.Stat(side); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: sidecar left behind after a failed evaluation (stat: %v)", tc.name, err)
		}
	}
}

// TestRunRecordsSaveIndexSameOutput runs -records with and without
// -save-index over records edged by a Unicode space (U+0085): the reader
// and the sidecar's record table frame the same records, so both print
// the same bytes.
func TestRunRecordsSaveIndexSameOutput(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	f := filepath.Join(dir, "in.ndjson")
	if err := os.WriteFile(f, []byte("\u0085{\"a\":1}\n{\"a\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	streamed, err := runOnInput(t, "path", f, func(args []string) error {
		return run(ctx, "$.a", "", false, false, true, 1, false, "", "", args)
	})
	if err != nil {
		t.Fatal(err)
	}
	saved, err := runOnInput(t, "path", f, func(args []string) error {
		return run(ctx, "$.a", "", false, false, true, 1, false, filepath.Join(dir, "in.jski"), "", args)
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != "1\n2\n" || saved != streamed {
		t.Fatalf("-records printed %q, -records -save-index %q; want \"1\\n2\\n\" from both", streamed, saved)
	}
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

// TestRunInputKindsGiveSameOutput feeds one document to -q, -get and
// -save-index as a path, as redirected stdin and through a pipe: the
// sized read and the pipe's fallback must print byte-identical output
// and write identical sidecars. The document and its output both exceed
// a pipe's 64 KiB, so the pipe is read in several pieces and stdout is
// flushed more than once.
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
		call func(kind string, args []string) error
	}{
		{"query", func(_ string, args []string) error {
			return run(ctx, "$.items[*].name", "", false, false, false, 1, false, "", "", args)
		}},
		{"get", func(_ string, args []string) error {
			return run(ctx, "", "items[2999].name", false, false, false, 1, false, "", "", args)
		}},
		{"save-index", func(kind string, args []string) error {
			side := filepath.Join(dir, kind+".jski")
			return run(ctx, "$.items[*].id", "", false, false, false, 1, false, side, "", args)
		}},
	}
	for _, op := range ops {
		var want string
		for _, kind := range inputKinds {
			got, err := runOnInput(t, kind, f, func(args []string) error { return op.call(kind, args) })
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
	want, err := os.ReadFile(filepath.Join(dir, inputKinds[0]+".jski"))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range inputKinds[1:] {
		got, err := os.ReadFile(filepath.Join(dir, kind+".jski"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("sidecar from %s differs from the one from %s", kind, inputKinds[0])
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
			_, err := runOnInput(t, kind, empty, func(args []string) error { return op.call("empty-"+kind, args) })
			if err == nil || !strings.Contains(err.Error(), "core: empty input") {
				t.Errorf("%s over empty %s: err = %v", op.name, kind, err)
			}
		}
		for _, kind := range inputKinds[:2] {
			_, err := runOnInput(t, kind, dir, func(args []string) error { return op.call("dir-"+kind, args) })
			if err == nil || !strings.Contains(err.Error(), "reading input:") {
				t.Errorf("%s over a directory as %s: err = %v", op.name, kind, err)
			}
		}
	}
}

// TestReadInputAllocatesOnce pins the sized read: over a 2 MiB regular
// file readInput allocates the input once, plus at most a page for the
// EOF probe and bookkeeping. io.ReadAll's growth allocates about five
// times the input.
func TestReadInputAllocatesOnce(t *testing.T) {
	const size = 2 << 20
	path := filepath.Join(t.TempDir(), "in.json")
	if err := os.WriteFile(path, bytes.Repeat([]byte{' '}, size), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// A GC cycle the read triggered would charge the runtime's own
	// allocations (mark workers, sweep bookkeeping) to the read.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	data, err := readInput(context.Background(), f)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != size {
		t.Fatalf("read %d bytes, want %d", len(data), size)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > size+4<<10 {
		t.Fatalf("reading %d bytes allocated %d bytes, want at most %d", size, alloc, size+4<<10)
	}
}
