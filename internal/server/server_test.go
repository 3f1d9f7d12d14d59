package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
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
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
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

func TestQueryMalformedSingleRecordIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, body := post(t, ts.URL+"/query?path="+url.QueryEscape("$.v.x"),
		"application/json", `{"v": {`)
	if code != http.StatusBadRequest || !strings.Contains(body, `"error"`) {
		t.Fatalf("status %d body %q", code, body)
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

func TestQueryOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 64})
	big := `{"v": "` + strings.Repeat("x", 200) + `"}`
	code, _ := post(t, ts.URL+"/query?path="+url.QueryEscape("$.v"), "application/json", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("single-record status = %d", code)
	}
	// NDJSON mode: the first record fits and streams; the limit trips
	// mid-body and must surface as a trailing error line.
	in := `{"v": 1}` + "\n" + big + "\n"
	code, body := post(t, ts.URL+"/query?path="+url.QueryEscape("$.v"), "", in)
	if code != http.StatusOK {
		t.Fatalf("ndjson status = %d (%s)", code, body)
	}
	if !strings.Contains(body, `{"record":0,"value":1}`) || !strings.Contains(body, `"error"`) {
		t.Fatalf("ndjson body = %q", body)
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
