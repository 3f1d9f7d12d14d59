package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"testing"

	"jsonski"
)

// mapShrunk writes doc to a file, maps it through readInput, then cuts the
// file to size bytes. The caller releases the mapping.
func mapShrunk(t *testing.T, doc []byte, size int64) *input {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.json")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	in, err := readInput(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if in.file == nil {
		in.release()
		t.Fatal("readInput did not map a regular file")
	}
	if err := os.Truncate(path, size); err != nil {
		in.release()
		t.Fatal(err)
	}
	return in
}

// shrinkDoc is `{"a": [0, 1, 2, ...], "b": 1}`, about 1.8 MB: the
// first matches of $.a[*] lie in its first 100 bytes, and "b" lies past
// everything else.
func shrinkDoc() []byte {
	var b bytes.Buffer
	b.WriteString(`{"a": [`)
	for i := 0; b.Len() < 1800000; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprint(&b, i)
	}
	b.WriteString(`], "b": 1}`)
	return b.Bytes()
}

// TestShrunkMappedInputIsAnError maps a file, then truncates it to 100
// bytes, and evaluates over the mapping as the CLI does: the query path,
// its -explain run and -get each return the shrink error instead of
// dying of SIGBUS on a vanished page, and the query path keeps the
// matches it streamed before the fault. A shrink within the last page,
// which faults nothing, reads as zeros and is still reported.
func TestShrunkMappedInputIsAnError(t *testing.T) {
	doc := shrinkDoc()
	q := jsonski.MustCompile("$.a[*]")
	wantErr := func(t *testing.T, err error, name string, from, to int) {
		t.Helper()
		want := fmt.Sprintf("reading input: %s shrank from %d to %d bytes while mapped", name, from, to)
		if err == nil || err.Error() != want || !errors.Is(err, errShrank) {
			t.Fatalf("err = %v, want %q", err, want)
		}
	}
	for _, explain := range []bool{false, true} {
		t.Run(fmt.Sprintf("query explain=%v", explain), func(t *testing.T) {
			in := mapShrunk(t, doc, 100)
			defer in.release()
			var stdout bytes.Buffer
			out := bufio.NewWriter(&stdout)
			_, err := in.query(q, jsonski.NewStreamSink(out), explain)
			wantErr(t, err, in.file.Name(), len(doc), 100)
			out.Flush()
			if !strings.HasPrefix(stdout.String(), "0\n1\n2\n") {
				t.Fatalf("streamed %q before the fault, want the first matches", stdout.String())
			}
		})
	}
	t.Run("get", func(t *testing.T) {
		in := mapShrunk(t, doc, 100)
		defer in.release()
		var stdout bytes.Buffer
		_, err := in.get("b", []string{"b"}, false, &stdout)
		wantErr(t, err, in.file.Name(), len(doc), 100)
		if stdout.Len() != 0 {
			t.Fatalf("get printed %q over a shrunk file", stdout.String())
		}
	})
	t.Run("within the last page", func(t *testing.T) {
		// 3019 bytes cut to 1019: one page either way.
		small := []byte(`{"a": [` + strings.Repeat("1, ", 1000) + `2], "b": 1}`)
		cut := len(small) - 2000
		in := mapShrunk(t, small, int64(cut))
		defer in.release()
		_, err := in.query(q, nil, false)
		wantErr(t, err, in.file.Name(), len(small), cut)
		_, err = in.get("b", []string{"b"}, false, io.Discard)
		wantErr(t, err, in.file.Name(), len(small), cut)
	})
}

// panicOf returns what fn panicked with, or nil.
func panicOf(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// faultSink reads *p for each match: a nil p or a PROT_NONE page makes
// the engine's goroutine fault inside the guard.
type faultSink struct {
	jsonski.CountSink
	p *byte
}

func (s *faultSink) Span(int, int) error {
	if *s.p == 0 {
		return io.EOF
	}
	return nil
}

// TestGuardRaisesOtherFaults checks that the guard converts only a
// fault the shrink explains. A nil dereference and a read of a
// PROT_NONE page outside the mapping still panic, though the file has
// shrunk, and so does a fault inside the mapping of a file that did
// not shrink. The guard leaves panic-on-fault as it found it.
func TestGuardRaisesOtherFaults(t *testing.T) {
	doc := shrinkDoc()
	page := syscall.Getpagesize()
	none, err := syscall.Mmap(-1, 0, page, syscall.PROT_NONE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(none)
	q := jsonski.MustCompile("$.a[*]")
	shrunk := mapShrunk(t, doc, 100)
	defer shrunk.release()
	whole := mapShrunk(t, doc, int64(len(doc)))
	defer whole.release()
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"nil dereference", func() error {
			_, err := shrunk.query(q, &faultSink{}, false)
			return err
		}},
		{"PROT_NONE page", func() error {
			_, err := shrunk.query(q, &faultSink{p: &none[0]}, false)
			return err
		}},
		{"mapping that did not shrink", func() error {
			if err := syscall.Mprotect(whole.data, syscall.PROT_NONE); err != nil {
				t.Fatal(err)
			}
			defer syscall.Mprotect(whole.data, syscall.PROT_READ)
			_, err := whole.get("b", []string{"b"}, false, io.Discard)
			return err
		}},
	} {
		var err error
		r := panicOf(func() { err = c.run() })
		if _, ok := r.(runtime.Error); !ok {
			t.Errorf("%s: recovered %v and returned %v, want a runtime error panic", c.name, r, err)
		}
	}
	if debug.SetPanicOnFault(false) {
		t.Error("the guard left panic-on-fault set")
	}
}
