package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"jsonski"
	"jsonski/internal/ndjson"
	"jsonski/internal/ndjson/ndjsontest"
)

// wantLines renders what a stream of recs must answer, one record at a
// time through the library: each record's match lines, or its error
// line in their place. It also returns how many records failed.
func wantLines(t *testing.T, recs []string, multi bool) (string, int) {
	t.Helper()
	var out strings.Builder
	failed := 0
	for i, rec := range recs {
		var (
			lines strings.Builder
			err   error
		)
		if multi {
			_, err = jsonski.MustCompileSet("$.v", "$.k").Run([]byte(rec), func(m jsonski.SetMatch) {
				fmt.Fprintf(&lines, `{"record":%d,"query":%d,"value":%s}`+"\n", i, m.Query, m.Value)
			})
		} else {
			_, err = jsonski.MustCompile("$.v").Run([]byte(rec), func(m jsonski.Match) {
				fmt.Fprintf(&lines, `{"record":%d,"value":%s}`+"\n", i, m.Value)
			})
		}
		if err != nil {
			failed++
			b, _ := json.Marshal(struct {
				Record int    `json:"record"`
				Error  string `json:"error"`
			}{i, err.Error()})
			out.Write(append(b, '\n'))
			continue
		}
		out.WriteString(lines.String())
	}
	return out.String(), failed
}

// TestStreamBatchBoundaries pins the NDJSON framing across batch
// boundaries: however the body's reads split it, /query and /multi
// answer exactly the per-record lines of its records, in order, with
// record indices counted across batches. A read error ends the answer
// with an error line, after the lines of every record read before it.
func TestStreamBatchBoundaries(t *testing.T) {
	s := New(Config{Workers: 2})
	t.Cleanup(s.Close)
	for _, tc := range ndjsontest.Cases() {
		for _, ep := range []struct {
			name, target string
			multi        bool
		}{
			{"query", "/query?path=" + url.QueryEscape("$.v"), false},
			{"multi", "/multi?path=" + url.QueryEscape("$.v") + "&path=" + url.QueryEscape("$.k"), true},
		} {
			t.Run(tc.Name+"/"+ep.name, func(t *testing.T) {
				want, failed := wantLines(t, tc.Recs, ep.multi)
				if failed != tc.Failed {
					t.Fatalf("%d of the case's records fail in the library, want %d", failed, tc.Failed)
				}
				if tc.Err != nil {
					want += string(errorLine(-1, tc.Err))
				}
				w := httptest.NewRecorder()
				s.ServeHTTP(w, httptest.NewRequest("POST", ep.target, tc.Reader()))
				if w.Code != http.StatusOK {
					t.Fatalf("status %d: %s", w.Code, w.Body)
				}
				if got := w.Body.String(); got != want {
					t.Fatalf("body:\n%.300q\nwant:\n%.300q", got, want)
				}
			})
		}
	}
}

// flushRecorder is a ResponseRecorder that counts flushes.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushRecorder) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// TestQueryStreamFlushesPerBatch pins one flush per batch: a body that
// arrives whole is flushed once per 64 KiB read (one more for the
// record split across two reads), not once per record.
func TestQueryStreamFlushesPerBatch(t *testing.T) {
	s := New(Config{Workers: 2})
	t.Cleanup(s.Close)
	const records = 256
	var body bytes.Buffer
	for i := 0; i < records; i++ {
		fmt.Fprintf(&body, `{"v":%d,"pad":"%s"}`+"\n", i, strings.Repeat("p", 500))
	}
	w := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	s.ServeHTTP(w, httptest.NewRequest("POST", "/query?path="+url.QueryEscape("$.v"), bytes.NewReader(body.Bytes())))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if n := strings.Count(w.Body.String(), "\n"); n != records {
		t.Fatalf("%d lines, want %d", n, records)
	}
	if limit := (body.Len()+ndjson.ReadSize-1)/ndjson.ReadSize + 1; w.flushes > limit {
		t.Fatalf("%d flushes for a %d-byte body, want at most %d", w.flushes, body.Len(), limit)
	}
}

// TestStreamPoolClosedMidStream closes the Server under a live NDJSON
// stream, as jsonskid does when a shutdown outlasts its drain timeout.
// The next record must end the stream with an error — a trailing error
// line once matches have been written, a 503 before — never with a
// clean EOF that passes for a complete answer.
func TestStreamPoolClosedMidStream(t *testing.T) {
	closedLine := `{"error":"` + errPoolClosed.Error() + `"}`
	start := func(t *testing.T, ts *httptest.Server) (*io.PipeWriter, chan *http.Response) {
		t.Helper()
		pr, pw := io.Pipe()
		// The watchdog ends the body if the error never arrives, so a
		// server that waits for more input fails the test, not hangs it.
		watchdog := time.AfterFunc(5*time.Second, func() { pw.Close() })
		t.Cleanup(func() {
			watchdog.Stop()
			pw.Close()
		})
		req, err := http.NewRequest("POST", ts.URL+"/query?path="+url.QueryEscape("$.v"), pr)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan *http.Response, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				close(done)
				return
			}
			done <- resp
		}()
		return pw, done
	}
	t.Run("after output", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 2})
		pw, done := start(t, ts)
		io.WriteString(pw, `{"v": 1}`+"\n")
		resp := <-done
		if resp == nil {
			t.FailNow()
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		if !sc.Scan() || sc.Text() != `{"record":0,"value":1}` {
			t.Fatalf("first line = %q (err %v)", sc.Text(), sc.Err())
		}
		s.Close()
		io.WriteString(pw, `{"v": 2}`+"\n")
		if !sc.Scan() || sc.Text() != closedLine {
			t.Fatalf("line after Close = %q (err %v), want %s", sc.Text(), sc.Err(), closedLine)
		}
		pw.Close()
		if sc.Scan() {
			t.Fatalf("unexpected extra line %q", sc.Text())
		}
	})
	t.Run("before output", func(t *testing.T) {
		s, ts := newTestServer(t, Config{Workers: 2})
		s.Close()
		pw, done := start(t, ts)
		io.WriteString(pw, `{"v": 1}`+"\n")
		resp := <-done
		if resp == nil {
			t.FailNow()
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		if !sc.Scan() || sc.Text() != closedLine {
			t.Fatalf("body = %q (err %v), want %s", sc.Text(), sc.Err(), closedLine)
		}
	})
}
