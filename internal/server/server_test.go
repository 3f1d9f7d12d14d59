package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url, contentType, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func getMetrics(t *testing.T, base string) metricsSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap metricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestQuerySingleJSONRecord(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, body := post(t, ts.URL+"/query?path="+url.QueryEscape("$.a.b"),
		"application/json", `{"a": {"b": 7}, "pad": [1, 2, 3]}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if body != `{"record":0,"value":7}`+"\n" {
		t.Fatalf("body = %q", body)
	}
}

func TestQueryNDJSONOrdered(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	var in strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&in, `{"pad": "%s", "v": %d}`+"\n", strings.Repeat("x", i%31), i)
	}
	code, body := post(t, ts.URL+"/query?path="+url.QueryEscape("$.v"), "application/x-ndjson", in.String())
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 200 {
		t.Fatalf("got %d lines", len(lines))
	}
	for i, ln := range lines {
		want := fmt.Sprintf(`{"record":%d,"value":%d}`, i, i)
		if ln != want {
			t.Fatalf("line %d = %q, want %q", i, ln, want)
		}
	}
}

func TestQueryNoMatchesIsEmptyStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, body := post(t, ts.URL+"/query?path="+url.QueryEscape("$.missing"), "", `{"v": 1}`+"\n")
	if code != http.StatusOK || body != "" {
		t.Fatalf("status %d body %q", code, body)
	}
}

func TestQueryBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, u := range map[string]string{
		"missing path": ts.URL + "/query",
		"bad path":     ts.URL + "/query?path=" + url.QueryEscape("$["),
	} {
		code, body := post(t, u, "", `{"v": 1}`)
		if code != http.StatusBadRequest || !strings.Contains(body, `"error"`) {
			t.Fatalf("%s: status %d body %q", name, code, body)
		}
	}
	resp, err := http.Get(ts.URL + "/query?path=$.v")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query status %d", resp.StatusCode)
	}
}

// TestRejectionsReadLargeBody posts a 4 MiB body to each request the
// server refuses before it looks at the body, over a raw connection
// that writes the whole body before it reads the response. The server
// must read the body out: a rejection that leaves it unread closes the
// connection once net/http's 256 KiB drain gives up, and the upload
// fails with a broken pipe instead of delivering the error.
func TestRejectionsReadLargeBody(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	rec := `{"v": 1}` + "\n"
	body := strings.Repeat(rec, 4<<20/len(rec))
	for _, tc := range []struct {
		target string
		status int
	}{
		{"/query", http.StatusBadRequest},
		{"/query?path=" + url.QueryEscape("$["), http.StatusBadRequest},
		{"/multi?explain=1&path=" + url.QueryEscape("$.v"), http.StatusBadRequest},
		{"/doc", http.StatusBadRequest},
	} {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: jsonskid\r\nContent-Length: %d\r\n\r\n", tc.target, len(body))
		if _, err := io.WriteString(conn, body); err != nil {
			t.Fatalf("%s: writing the body: %v", tc.target, err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("%s: reading the response: %v", tc.target, err)
		}
		msg, err := io.ReadAll(resp.Body)
		conn.Close()
		if err != nil || resp.StatusCode != tc.status || !strings.Contains(string(msg), `"error"`) {
			t.Fatalf("%s: status %d body %q err %v; want %d and an error", tc.target, resp.StatusCode, msg, err, tc.status)
		}
	}
}

// TestQueryOnSetKeyTextIs400: after /multi caches a query set, a /query
// whose path spells that set's cache key is a bad path (the parser
// rejects the NUL), and the daemon goes on answering.
func TestQueryOnSetKeyTextIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if code, body := post(t, ts.URL+"/multi?path="+url.QueryEscape("$.a"), "", `{"a": 1}`+"\n"); code != http.StatusOK {
		t.Fatalf("/multi: status %d body %q", code, body)
	}
	code, body := post(t, ts.URL+"/query?path="+url.QueryEscape("set\x00$.a"), "", `{"a": 1}`+"\n")
	if code != http.StatusBadRequest || !strings.Contains(body, `"error"`) {
		t.Fatalf("/query on the set key: status %d body %q, want 400", code, body)
	}
	if code, body := post(t, ts.URL+"/query?path="+url.QueryEscape("$.a"), "", `{"a": 1}`+"\n"); code != http.StatusOK || body != `{"record":0,"value":1}`+"\n" {
		t.Fatalf("daemon after the bad path: status %d body %q", code, body)
	}
}

func TestQueryMalformedSingleRecordIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, endpoint := range []string{"/query", "/multi"} {
		code, body := post(t, ts.URL+endpoint+"?path="+url.QueryEscape("$.v.x"),
			"application/json", `{"v": {`)
		if code != http.StatusBadRequest || !strings.Contains(body, `"error"`) {
			t.Fatalf("%s: status %d body %q", endpoint, code, body)
		}
	}
}

func TestQueryMalformedRecordBecomesErrorLineAndStreamContinues(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	in := `{"v": {"x": 1}}` + "\n" + `{"v": {"x": 2}}` + "\n" + `{"v": {` + "\n" + `{"v": {"x": 4}}` + "\n"
	code, body := post(t, ts.URL+"/query?path="+url.QueryEscape("$.v.x"), "", in)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	// Two match lines, the record-2 error line, then record 3's match:
	// NDJSON records are independent, so the stream continues.
	if len(lines) != 4 {
		t.Fatalf("lines = %q", lines)
	}
	var errLine struct {
		Record int    `json:"record"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal([]byte(lines[2]), &errLine); err != nil {
		t.Fatal(err)
	}
	if errLine.Record != 2 || errLine.Error == "" {
		t.Fatalf("error line = %+v", errLine)
	}
	if lines[3] != `{"record":3,"value":4}` {
		t.Fatalf("stream did not continue past the bad record: %q", lines[3])
	}
}

// TestQueryOversizedBody posts bodies past the cap in both modes: a
// single record answers 413, and an NDJSON stream whose first record
// fits streams it and ends with an error line. The record the cap cuts
// is not answered: it is not malformed, only cut, so it gets no error
// line of its own and no count in record_errors. Either way the cap must
// end the connection, never hand it back for reuse with the rest of the
// body unread: that reuse made a full-duplex stream panic with an
// invalid concurrent Body.Read, which net/http logs as "panic serving".
// The 413 also says so in its header; the stream's header may already
// be out when the cap trips.
func TestQueryOversizedBody(t *testing.T) {
	s := New(Config{Workers: 1, MaxBodyBytes: 64})
	var errLog syncBuffer
	// The hook runs on the server's goroutines and must not block them:
	// 64 holds every transition of the test's two connections and more.
	states := make(chan http.ConnState, 64)
	ts := httptest.NewUnstartedServer(s)
	ts.Config.ErrorLog = log.New(&errLog, "", 0)
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) { states <- st }
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	// send posts body on a connection of its own, reads the response
	// and waits for the server to close the connection.
	send := func(name, contentType, body string) (*http.Response, string) {
		t.Helper()
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		resp, err := (&http.Client{Transport: tr}).Post(
			ts.URL+"/query?path="+url.QueryEscape("$.v"), contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for {
			select {
			case st := <-states:
				switch st {
				case http.StateIdle:
					t.Fatalf("%s: connection went idle for reuse", name)
				case http.StateClosed:
					return resp, string(out)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: connection still open", name)
			}
		}
	}

	big := `{"v": "` + strings.Repeat("x", 200) + `"}`
	resp, _ := send("single record", "application/json", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !resp.Close {
		t.Fatalf("single record: status %d, Connection: close %t", resp.StatusCode, resp.Close)
	}
	// NDJSON mode: the first record fits and streams; the limit trips
	// mid-body, inside the second record, and must surface as a trailing
	// error line alone.
	reqErrs := s.m.counts[requestErrors].Load()
	resp, body := send("ndjson", "", `{"v": 1}`+"\n"+big+"\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ndjson status = %d (%s)", resp.StatusCode, body)
	}
	if want := `{"record":0,"value":1}` + "\n" + `{"error":"http: request body too large"}` + "\n"; body != want {
		t.Fatalf("ndjson body = %q, want %q", body, want)
	}
	if n := s.m.counts[recordErrors].Load(); n != 0 {
		t.Fatalf("record_errors = %d after a cut record, want 0", n)
	}
	if n := s.m.counts[requestErrors].Load() - reqErrs; n != 1 {
		t.Fatalf("the cut stream counted %d request errors, want 1 (the cap)", n)
	}
	if out := errLog.String(); strings.Contains(out, "panic serving") {
		t.Fatalf("server error log:\n%s", out)
	}
}

// TestQueryBodyAtCap posts an NDJSON body of exactly the cap whose last
// record has no newline: the body ends where the cap does, so that
// record is whole, and every record is answered with no error line.
func TestQueryBodyAtCap(t *testing.T) {
	body := `{"v": 1}` + "\n" + `{"v": 2}` + "\n" + `{"v": 3}`
	s, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: int64(len(body))})
	code, out := post(t, ts.URL+"/query?path="+url.QueryEscape("$.v"), "", body)
	want := `{"record":0,"value":1}` + "\n" + `{"record":1,"value":2}` + "\n" + `{"record":2,"value":3}` + "\n"
	if code != http.StatusOK || out != want {
		t.Fatalf("status %d body %q, want 200 and %q", code, out, want)
	}
	if n := s.m.counts[requestErrors].Load(); n != 0 {
		t.Fatalf("request errors = %d, want 0", n)
	}
}

// TestQueryCapAfterFirstBatch trips the cap of an NDJSON stream after
// its first record has gone to the handler: the body arrives in two
// writes, a record that fits and then the rest. The read that trips
// the cap tells net/http so through the response writer; made on the
// body reader's goroutine it races the handler's first write, which
// -race reports.
func TestQueryCapAfterFirstBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxBodyBytes: 100})
	first := `{"v": 1}` + "\n"
	rest := `{"v": "` + strings.Repeat("x", 400) + `"}` + "\n"
	for i := 0; i < 50; i++ {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST /query?path=$.v HTTP/1.1\r\nHost: jsonskid\r\nContent-Length: %d\r\n\r\n%s", len(first)+len(rest), first)
		// A gap of 0-300 µs moves the trip across the handler's first
		// write, so -race sees a trip made on the reader's goroutine
		// overlap it.
		time.Sleep(time.Duration(i%7) * 50 * time.Microsecond)
		if _, err := io.WriteString(conn, rest); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		conn.Close()
		if err != nil || resp.StatusCode != http.StatusOK ||
			!strings.HasPrefix(string(body), `{"record":0,"value":1}`) || !strings.Contains(string(body), "request body too large") {
			t.Fatalf("status %d body %q err %v", resp.StatusCode, body, err)
		}
	}
}

func TestQueryStreamsIncrementally(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", ts.URL+"/query?path="+url.QueryEscape("$.v"), pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	type res struct {
		resp *http.Response
		err  error
	}
	done := make(chan res, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		done <- res{resp, err}
	}()
	if _, err := io.WriteString(pw, `{"v": 1}`+"\n"); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	defer r.resp.Body.Close()
	sc := bufio.NewScanner(r.resp.Body)
	if !sc.Scan() || sc.Text() != `{"record":0,"value":1}` {
		t.Fatalf("first line = %q (err %v)", sc.Text(), sc.Err())
	}
	// The first match arrived while the body is still open: the second
	// record has not even been sent yet.
	if _, err := io.WriteString(pw, `{"v": 2}`+"\n"); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() || sc.Text() != `{"record":1,"value":2}` {
		t.Fatalf("second line = %q", sc.Text())
	}
	pw.Close()
	if sc.Scan() {
		t.Fatalf("unexpected extra line %q", sc.Text())
	}
}

// TestMultiStreamsIncrementally is TestQueryStreamsIncrementally over
// /multi: each trickled record's matches arrive before the next record
// is sent.
func TestMultiStreamsIncrementally(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST",
		ts.URL+"/multi?path="+url.QueryEscape("$.v")+"&path="+url.QueryEscape("$.w"), pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	type res struct {
		resp *http.Response
		err  error
	}
	done := make(chan res, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		done <- res{resp, err}
	}()
	if _, err := io.WriteString(pw, `{"v": 1, "w": "a"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	defer r.resp.Body.Close()
	sc := bufio.NewScanner(r.resp.Body)
	for _, want := range []string{`{"record":0,"query":0,"value":1}`, `{"record":0,"query":1,"value":"a"}`} {
		if !sc.Scan() || sc.Text() != want {
			t.Fatalf("line = %q (err %v), want %s", sc.Text(), sc.Err(), want)
		}
	}
	// Record 0's matches arrived while the body is still open: record 1
	// has not even been sent yet.
	if _, err := io.WriteString(pw, `{"v": 2, "w": "b"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`{"record":1,"query":0,"value":2}`, `{"record":1,"query":1,"value":"b"}`} {
		if !sc.Scan() || sc.Text() != want {
			t.Fatalf("line = %q (err %v), want %s", sc.Text(), sc.Err(), want)
		}
	}
	pw.Close()
	if sc.Scan() {
		t.Fatalf("unexpected extra line %q", sc.Text())
	}
}

func TestQueryClientDisconnectMidStream(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST",
		ts.URL+"/query?path="+url.QueryEscape("$.v"), pr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	io.WriteString(pw, `{"v": 1}`+"\n")
	// Cancel while the handler is blocked reading the next record.
	time.Sleep(20 * time.Millisecond)
	cancel()
	pw.Close()
	<-done
	// The handler must notice and exit, releasing its in-flight slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if snap := getMetrics(t, ts.URL); snap.Requests.InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("handler did not exit after client disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = srv
}

func TestMulti(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	u := ts.URL + "/multi?path=" + url.QueryEscape("$.a") + "&path=" + url.QueryEscape("$.b")
	in := `{"a": 1, "b": "x"}` + "\n" + `{"b": "y"}` + "\n"
	code, body := post(t, u, "", in)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	want := `{"record":0,"query":0,"value":1}` + "\n" +
		`{"record":0,"query":1,"value":"x"}` + "\n" +
		`{"record":1,"query":1,"value":"y"}` + "\n"
	if body != want {
		t.Fatalf("body = %q", body)
	}
	if code, _ := post(t, ts.URL+"/multi", "", in); code != http.StatusBadRequest {
		t.Fatalf("missing paths status = %d", code)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestMetricsReportCacheHitAndFastForward(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	// A padded record so fast-forwarding has something to skip.
	in := `{"skipme": {"deep": [1, 2, 3, 4, 5, 6, 7, 8]}, "v": 42, "tail": "` +
		strings.Repeat("y", 512) + `"}` + "\n"
	u := ts.URL + "/query?path=" + url.QueryEscape("$.v")
	if code, body := post(t, u, "", in); code != http.StatusOK || !strings.Contains(body, "42") {
		t.Fatalf("first request: %d %q", code, body)
	}
	snap1 := getMetrics(t, ts.URL)
	if snap1.Cache.Misses == 0 || snap1.Cache.Hits != 0 {
		t.Fatalf("first-request cache stats: %+v", snap1.Cache)
	}
	if code, _ := post(t, u, "", in); code != http.StatusOK {
		t.Fatal("second request failed")
	}
	snap := getMetrics(t, ts.URL)
	if snap.Cache.Hits == 0 {
		t.Fatalf("second identical request should hit cache: %+v", snap.Cache)
	}
	if snap.IO.BytesIn == 0 || snap.IO.BytesOut == 0 {
		t.Fatalf("io counters: %+v", snap.IO)
	}
	if snap.Engine.Records != 2 || snap.Engine.Matches != 2 {
		t.Fatalf("engine counters: %+v", snap.Engine)
	}
	if snap.Engine.FastForwardRatio <= 0 || snap.Engine.FastForwardRatio > 1 {
		t.Fatalf("fast-forward ratio = %v", snap.Engine.FastForwardRatio)
	}
	if snap.Workers.Count != 2 || snap.Workers.QueueCapacity == 0 {
		t.Fatalf("worker gauges: %+v", snap.Workers)
	}
	if snap.Requests.Query != 2 {
		t.Fatalf("request count: %+v", snap.Requests)
	}
}

// TestConcurrentRequestsRace hammers one server — and through it one
// shared cache and worker pool — from many goroutines. Run under -race.
func TestConcurrentRequestsRace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, CacheSize: 4})
	paths := []string{"$.a", "$.b", "$.c[0]", "$.d.e", "$.f", "$.g[*]"}
	var in strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&in, `{"a": %d, "b": "s", "c": [1], "d": {"e": null}, "f": true, "g": [%d]}`+"\n", i, i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				p := paths[(w+i)%len(paths)]
				var u string
				if i%3 == 0 {
					u = ts.URL + "/multi?path=" + url.QueryEscape(p) +
						"&path=" + url.QueryEscape(paths[(w+i+1)%len(paths)])
				} else {
					u = ts.URL + "/query?path=" + url.QueryEscape(p)
				}
				resp, err := http.Post(u, "", strings.NewReader(in.String()))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d for %s", resp.StatusCode, u)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	snap := getMetrics(t, ts.URL)
	if snap.Requests.Errors != 0 || snap.Engine.RecordErrors != 0 {
		t.Fatalf("errors under load: %+v", snap.Requests)
	}
}

// TestSingleDocumentErrorAfterOutput: once a single document's match
// lines have filled the 16 KiB response buffer and gone out, an engine
// error can no longer become a 400. The response keeps its 200 and the
// lines already sent, and ends with a {"record":0,"error":...} line, on
// /query, its explain runs and /multi alike.
func TestSingleDocumentErrorAfterOutput(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	doc := `{"a": [` + strings.Repeat(`1, `, 8000) // truncated mid-array
	for _, target := range []string{
		"/query?path=" + url.QueryEscape("$.a[*]"),
		"/query?explain=1&path=" + url.QueryEscape("$.a[*]"),
		"/multi?path=" + url.QueryEscape("$.a[*]"),
	} {
		code, body := post(t, ts.URL+target, "application/json", doc)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d, want 200 once output has gone out: %.200q", target, code, body)
		}
		lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
		if len(lines) < 2 || len(body) < 16<<10 {
			t.Fatalf("%s: %d lines, %d bytes, want more than 16 KiB of match lines", target, len(lines), len(body))
		}
		var last struct {
			Record *int   `json:"record"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Record == nil || *last.Record != 0 || last.Error == "" {
			t.Fatalf("%s: last line %q, want a record 0 error line (%v)", target, lines[len(lines)-1], err)
		}
		if !strings.HasPrefix(lines[0], `{"record":0,`) || !strings.HasSuffix(lines[0], `"value":1}`) {
			t.Fatalf("%s: first line %q, want a match line", target, lines[0])
		}
	}
}
