package jsonski

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func ndjsonInput(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `{"pad": "%s", "v": %d}`, strings.Repeat("x", i%40), i)
		sb.WriteByte('\n')
		if i%7 == 0 {
			sb.WriteString("\n") // blank lines are skipped
		}
	}
	return sb.String()
}

func TestRunReader(t *testing.T) {
	q := MustCompile("$.v")
	var got []string
	st, err := q.RunReaderContext(context.Background(), strings.NewReader(ndjsonInput(50)), func(m Match) {
		got = append(got, fmt.Sprintf("%d:%s", m.Record, m.Value))
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != 50 || len(got) != 50 {
		t.Fatalf("matches = %d, got %d values", st.Matches, len(got))
	}
	if got[0] != "0:0" || got[49] != "49:49" {
		t.Fatalf("got[0]=%q got[49]=%q", got[0], got[49])
	}
}

func TestRunReaderNoTrailingNewline(t *testing.T) {
	q := MustCompile("$.v")
	in := `{"v": 1}` + "\n" + `{"v": 2}` // no trailing \n
	st, err := q.RunReaderContext(context.Background(), strings.NewReader(in), nil)
	if err != nil || st.Matches != 2 {
		t.Fatalf("st=%+v err=%v", st, err)
	}
}

func TestRunReaderLongLines(t *testing.T) {
	q := MustCompile("$.v")
	big := strings.Repeat("y", 200000)
	in := fmt.Sprintf(`{"pad": "%s", "v": 9}%s{"v": 10}`, big, "\n")
	st, err := q.RunReaderContext(context.Background(), strings.NewReader(in), nil)
	if err != nil || st.Matches != 2 {
		t.Fatalf("st=%+v err=%v", st, err)
	}
}

func TestRunReaderMalformedRecord(t *testing.T) {
	q := MustCompile("$.v.x")
	in := `{"v": {"x": 1}}` + "\n" + `{"v": {` + "\n"
	if _, err := q.RunReaderContext(context.Background(), strings.NewReader(in), nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunReaderParallel(t *testing.T) {
	q := MustCompile("$.v")
	const n = 10000 // several 64 KiB batches, so workers claim them concurrently
	var mu sync.Mutex
	var recs []int
	st, err := q.RunReaderParallelContext(context.Background(), strings.NewReader(ndjsonInput(n)), 8, func(m Match) {
		mu.Lock()
		recs = append(recs, m.Record)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Matches != n {
		t.Fatalf("matches = %d", st.Matches)
	}
	sort.Ints(recs)
	for i, r := range recs {
		if r != i {
			t.Fatalf("missing record %d", i)
		}
	}
}

func TestRunReaderParallelSerialFallback(t *testing.T) {
	q := MustCompile("$.v")
	st, err := q.RunReaderParallelContext(context.Background(), strings.NewReader(`{"v":1}`), 1, nil)
	if err != nil || st.Matches != 1 {
		t.Fatalf("st=%+v err=%v", st, err)
	}
}

func TestRunReaderContextCancelled(t *testing.T) {
	q := MustCompile("$.v")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := q.RunReaderContext(ctx, strings.NewReader(ndjsonInput(10)), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	_, err = q.RunReaderParallelContext(ctx, strings.NewReader(ndjsonInput(10)), 4, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel err = %v", err)
	}
}

func TestRunReaderContextCancelMidStream(t *testing.T) {
	q := MustCompile("$.v")
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	st, err := q.RunReaderContext(ctx, strings.NewReader(ndjsonInput(100)), func(m Match) {
		n++
		if n == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if st.Matches != 3 || n != 3 {
		t.Fatalf("processed %d records after cancel (stats %d)", n, st.Matches)
	}
}

func TestRunReaderErrorNamesRecord(t *testing.T) {
	q := MustCompile("$.v.x")
	in := `{"v": {"x": 1}}` + "\n" + `{"v": {` + "\n"
	_, err := q.RunReaderContext(context.Background(), strings.NewReader(in), nil)
	if err == nil || !strings.Contains(err.Error(), "record 1:") {
		t.Fatalf("err = %v", err)
	}
}

type failingReader struct{ data io.Reader }

func (f *failingReader) Read(p []byte) (int, error) {
	n, err := f.data.Read(p)
	if err == io.EOF {
		return n, fmt.Errorf("socket reset")
	}
	return n, err
}

func TestRunReaderPropagatesReadError(t *testing.T) {
	q := MustCompile("$.v")
	_, err := q.RunReaderContext(context.Background(), &failingReader{strings.NewReader("{\"v\":1}\n")}, nil)
	if err == nil || !strings.Contains(err.Error(), "socket reset") {
		t.Fatalf("err = %v", err)
	}
	_, err = q.RunReaderParallelContext(context.Background(), &failingReader{strings.NewReader("{\"v\":1}\n")}, 4, nil)
	if err == nil {
		t.Fatal("parallel read error not propagated")
	}
}

// TestRunReaderStreamsIncrementally feeds RunReaderSink through a pipe:
// record n's matches must reach the sink before record n+1 is written,
// so a reader never waits for input beyond a complete record.
func TestRunReaderStreamsIncrementally(t *testing.T) {
	pr, pw := io.Pipe()
	// The watchdog ends the stream if a match never arrives, so a reader
	// that waits for more input fails the test, not hangs it.
	watchdog := time.AfterFunc(5*time.Second, func() { pw.CloseWithError(errors.New("no match before the next record")) })
	defer watchdog.Stop()
	out := make(chan string)
	done := make(chan error, 1)
	go func() {
		_, err := MustCompile("$.v").RunReaderSink(context.Background(), pr, &chanSink{out: out})
		done <- err
	}()
	for i := 0; i < 3; i++ {
		if _, err := fmt.Fprintf(pw, "{\"v\": %d}\n", i); err != nil {
			t.Fatal(err)
		}
		if got, want := <-out, fmt.Sprint(i); got != want {
			t.Fatalf("record %d matched %q, want %q", i, got, want)
		}
	}
	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// chanSink sends each match's value on out.
type chanSink struct {
	out  chan<- string
	data []byte
}

func (s *chanSink) Begin(_ int, data []byte) { s.data = data }
func (s *chanSink) Span(start, end int) error {
	s.out <- string(s.data[start:end])
	return nil
}
func (s *chanSink) Flush() error { return nil }
