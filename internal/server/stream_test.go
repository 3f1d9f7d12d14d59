package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"jsonski"
)

// pieceReader hands out one piece per Read (as much of it as fits), so a
// test decides where the server's reads of a body end.
type pieceReader struct{ pieces []string }

func (p *pieceReader) Read(b []byte) (int, error) {
	for len(p.pieces) > 0 && p.pieces[0] == "" {
		p.pieces = p.pieces[1:]
	}
	if len(p.pieces) == 0 {
		return 0, io.EOF
	}
	n := copy(b, p.pieces[0])
	p.pieces[0] = p.pieces[0][n:]
	return n, nil
}

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
// record indices counted across batches.
func TestStreamBatchBoundaries(t *testing.T) {
	long := `{"v":1,"k":"` + strings.Repeat("x", 80<<10) + `"}`
	// A mixed stream — blank lines, CRLF, malformed records, records of
	// up to 70 KiB — cut into reads of random length.
	rng := rand.New(rand.NewSource(1))
	var (
		mixed       strings.Builder
		mixedRecs   []string
		mixedFailed int
	)
	for i := 0; i < 300; i++ {
		var rec string
		switch rng.Intn(8) {
		case 0:
			mixed.WriteString(" \t\n")
			continue
		case 1:
			rec = `{"v":{"k":`
			mixedFailed++
		case 2:
			rec = fmt.Sprintf(`{"v":%d,"k":"%s"}`, i, strings.Repeat("x", rng.Intn(70<<10)))
		default:
			rec = fmt.Sprintf(`{"v":%d,"k":"s%d"}`, i, i)
		}
		mixedRecs = append(mixedRecs, rec)
		mixed.WriteString(rec)
		if rng.Intn(2) == 0 {
			mixed.WriteByte('\r')
		}
		mixed.WriteByte('\n')
	}
	var mixedPieces []string
	for rest := mixed.String(); len(rest) > 0; {
		n := min(1+rng.Intn(9000), len(rest))
		mixedPieces = append(mixedPieces, rest[:n])
		rest = rest[n:]
	}
	cases := []struct {
		name   string
		pieces []string // the body, one piece per read
		recs   []string // the records it holds, in order
		failed int      // how many of recs are malformed
	}{
		{
			name:   "reads split records mid-line",
			pieces: []string{`{"v":0,"k":"a"}` + "\n" + `{"v":1,`, `"k":"b"}` + "\n" + `{"v":`, `2,"k":"c"}`, "\n"},
			recs:   []string{`{"v":0,"k":"a"}`, `{"v":1,"k":"b"}`, `{"v":2,"k":"c"}`},
		},
		{
			name:   "record longer than 64 KiB",
			pieces: []string{`{"v":0,"k":"a"}` + "\n" + long[:1000], long[1000:] + "\n" + `{"v":2,"k":"c"}` + "\n"},
			recs:   []string{`{"v":0,"k":"a"}`, long, `{"v":2,"k":"c"}`},
		},
		{
			name:   "CRLF line endings",
			pieces: []string{"{\"v\":0,\"k\":\"a\"}\r\n{\"v\":1,\"k\":\"b\"}\r", "\n{\"v\":2,\"k\":\"c\"}\r\n"},
			recs:   []string{`{"v":0,"k":"a"}`, `{"v":1,"k":"b"}`, `{"v":2,"k":"c"}`},
		},
		{
			name:   "blank and whitespace-only lines",
			pieces: []string{"\n  \n{\"v\":0,\"k\":\"a\"}\n\t \r\n\n", "   \n{\"v\":1,\"k\":\"b\"}\n \t"},
			recs:   []string{`{"v":0,"k":"a"}`, `{"v":1,"k":"b"}`},
		},
		{
			name:   "last record without a newline",
			pieces: []string{`{"v":0,"k":"a"}` + "\n" + `{"v":1,"k":"b"}`},
			recs:   []string{`{"v":0,"k":"a"}`, `{"v":1,"k":"b"}`},
		},
		{
			// Record 3 matches before it fails: its error line replaces
			// the match lines it rendered.
			name:   "malformed records mid-batch",
			pieces: []string{`{"v":0,"k":"a"}` + "\n" + `{"v":{"k":` + "\n" + `{"v":2,"k":"c"}` + "\n" + `{"v":3,"k":"d",` + "\n", `{"v":4,"k":"e"}` + "\n"},
			recs:   []string{`{"v":0,"k":"a"}`, `{"v":{"k":`, `{"v":2,"k":"c"}`, `{"v":3,"k":"d",`, `{"v":4,"k":"e"}`},
			failed: 2,
		},
		{name: "empty body"},
		{name: "mixed stream in random reads", pieces: mixedPieces, recs: mixedRecs, failed: mixedFailed},
	}
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	for _, tc := range cases {
		for _, ep := range []struct {
			name, target string
			multi        bool
		}{
			{"query", "/query?path=" + url.QueryEscape("$.v"), false},
			{"multi", "/multi?path=" + url.QueryEscape("$.v") + "&path=" + url.QueryEscape("$.k"), true},
		} {
			t.Run(tc.name+"/"+ep.name, func(t *testing.T) {
				want, failed := wantLines(t, tc.recs, ep.multi)
				if failed != tc.failed {
					t.Fatalf("%d of the case's records fail in the library, want %d", failed, tc.failed)
				}
				body := &pieceReader{pieces: append([]string(nil), tc.pieces...)}
				w := httptest.NewRecorder()
				s.ServeHTTP(w, httptest.NewRequest("POST", ep.target, body))
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
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
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
	if limit := (body.Len()+bodyReadSize-1)/bodyReadSize + 1; w.flushes > limit {
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
