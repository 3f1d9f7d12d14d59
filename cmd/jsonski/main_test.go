package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
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
