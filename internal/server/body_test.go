package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// send posts body to u with the given Content-Type and returns the
// status and response body. chunked hides the body's length from the
// client, so it goes out with chunked transfer encoding and the server
// sees no Content-Length.
func send(u, contentType, body string, chunked bool) (int, string, error) {
	var rd io.Reader = strings.NewReader(body)
	if chunked {
		rd = struct{ io.Reader }{rd}
	}
	req, err := http.NewRequest("POST", u, rd)
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b), err
}

// TestMultiCountsEachPass pins the engine byte accounting of a query
// set that takes two passes over a record (a shared child path and a
// descendant sidecar): input_bytes counts the record once per pass, and
// the identity input = scanned + Σ skipped holds over the sum.
func TestMultiCountsEachPass(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	rec := `{"text":"hi","en":{"urls":[{"url":"http://a"},{"url":"http://b"}]},"pad":[1,2,3]}`
	u := ts.URL + "/multi?path=" + url.QueryEscape("$.text") + "&path=" + url.QueryEscape("$..url")
	code, body := post(t, u, "application/x-ndjson", rec+"\n")
	want := `{"record":0,"query":0,"value":"hi"}` + "\n" +
		`{"record":0,"query":1,"value":"http://a"}` + "\n" +
		`{"record":0,"query":1,"value":"http://b"}` + "\n"
	if code != http.StatusOK || body != want {
		t.Fatalf("status %d body %q, want %q", code, body, want)
	}
	e := getMetrics(t, ts.URL).Engine
	if e.InputBytes != 2*int64(len(rec)) {
		t.Errorf("input_bytes = %d, want %d (two passes over a %d-byte record)", e.InputBytes, 2*len(rec), len(rec))
	}
	var skipped int64
	for _, v := range e.SkippedBytes {
		skipped += v
	}
	if e.InputBytes != e.ScannedBytes+skipped {
		t.Errorf("input_bytes %d != scanned_bytes %d + skipped %d", e.InputBytes, e.ScannedBytes, skipped)
	}
}

// TestDeclaredLengthAllocatesOnArrival sends a single-document request
// that declares a 1 GiB body, sends 16 bytes and closes its side of the
// connection. The daemon answers 400, having allocated for the bytes
// that arrived, not for the length declared.
func TestDeclaredLengthAllocatesOnArrival(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := "POST /query?path=%24.a HTTP/1.1\r\nHost: jsonskid\r\n" +
		"Content-Type: application/json\r\nContent-Length: 1073741824\r\n\r\n" +
		`{"a": 1, "b": 2,`
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (%s), want 400", resp.StatusCode, body)
	}
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("allocated %d bytes serving a 16-byte body that declared 1 GiB", grew)
	if grew >= 4<<20 {
		t.Errorf("allocated %d bytes, want under %d", grew, 4<<20)
	}
}

// TestChunkedLargeSingleDocument sends a 3 MiB single document with
// and without a Content-Length. Without one the body buffer grows from
// the pool's by doubling; either way it ends too large to go back to
// the pool, and the answers are the same.
func TestChunkedLargeSingleDocument(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var doc strings.Builder
	doc.WriteString(`{"pad":"`)
	doc.WriteString(strings.Repeat("p", 3<<20))
	doc.WriteString(`","items":[{"k":1},{"k":2},{"k":3}]}`)
	for _, chunked := range []bool{true, false} {
		code, body, err := send(ts.URL+"/query?path="+url.QueryEscape("$.items[*].k"), "application/json", doc.String(), chunked)
		if err != nil {
			t.Fatal(err)
		}
		want := `{"record":0,"value":1}` + "\n" + `{"record":0,"value":2}` + "\n" + `{"record":0,"value":3}` + "\n"
		if code != http.StatusOK || body != want {
			t.Fatalf("chunked=%v: status %d body %q, want %q", chunked, code, body, want)
		}
	}
	code, body, err := send(ts.URL+"/doc?get=items[2].k", "application/json", doc.String(), true)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || body != "3\n" {
		t.Fatalf("/doc: status %d body %q", code, body)
	}
}

// TestStressSingleDocBodiesRecycled hammers every handler that reads a
// single-document body into a pooled buffer — /query streamed and with
// ?explain=1, /multi, /doc — from many goroutines, with bodies of mixed
// sizes sent with a Content-Length or chunked, one of them past the
// pool's 1 MiB cap. It runs against a server whose index cache evicts
// constantly and one with the cache off. Every response is compared
// exactly with the answer a serial run gave, so a buffer recycled while
// a response or a cached index still reads it shows as wrong output;
// poisonBodies makes that happen on every run, not only when the race
// is lost.
func TestStressSingleDocBodiesRecycled(t *testing.T) {
	poisonBodies.Store(true)
	defer poisonBodies.Store(false)
	docs := make([]string, 5)
	for i := range docs {
		pad := 700 * i
		if i == len(docs)-1 {
			pad = firstBodyChunk + 4096
		}
		docs[i] = fmt.Sprintf(`{"a": {"b": %d}, "items": [{"k":"v%d"}, {"k":"w%d"}], "pad": "%s"}`,
			i, i, i, strings.Repeat(string(rune('p'+i)), pad))
	}
	type kind struct {
		target  string
		chunked bool
		want    func(d int) string // nil: the serial run's answer
	}
	kinds := []kind{
		{target: "/query?path=" + url.QueryEscape("$.a.b"),
			want: func(d int) string { return fmt.Sprintf(`{"record":0,"value":%d}`+"\n", d) }},
		{target: "/query?path=" + url.QueryEscape("$.items[*].k"), chunked: true,
			want: func(d int) string {
				return fmt.Sprintf(`{"record":0,"value":"v%d"}`+"\n"+`{"record":0,"value":"w%d"}`+"\n", d, d)
			}},
		{target: "/query?explain=1&path=" + url.QueryEscape("$.items[1].k")},
		{target: "/multi?path=" + url.QueryEscape("$.a.b") + "&path=" + url.QueryEscape("$..k")},
		{target: "/doc?get=items[1].k", chunked: true,
			want: func(d int) string { return fmt.Sprintf(`"w%d"`+"\n", d) }},
		{target: "/doc?get=a.b",
			want: func(d int) string { return fmt.Sprintf("%d\n", d) }},
	}
	for _, cfg := range []struct {
		name string
		cfg  Config
	}{
		{"cache", Config{Workers: 4, IndexCacheBytes: 8 << 10}},
		{"nocache", Config{Workers: 4, IndexCacheBytes: -1}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			_, ts := newTestServer(t, cfg.cfg)
			want := make([][]string, len(kinds))
			for k, kd := range kinds {
				want[k] = make([]string, len(docs))
				for d := range docs {
					code, body, err := send(ts.URL+kd.target, "application/json", docs[d], kd.chunked)
					if err != nil || code != http.StatusOK {
						t.Fatalf("serial %s over doc %d: status %d body %q err %v", kd.target, d, code, body, err)
					}
					if kd.want != nil && body != kd.want(d) {
						t.Fatalf("serial %s over doc %d = %q, want %q", kd.target, d, body, kd.want(d))
					}
					want[k][d] = body
				}
			}

			var wg sync.WaitGroup
			errc := make(chan error, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for it := 0; it < 24; it++ {
						// The large document once per goroutine; the
						// small ones interleave around it.
						d := (g + it) % (len(docs) - 1)
						if it == g {
							d = len(docs) - 1
						}
						k := (g*5 + it) % len(kinds)
						code, body, err := send(ts.URL+kinds[k].target, "application/json", docs[d], kinds[k].chunked)
						if err != nil || code != http.StatusOK || body != want[k][d] {
							errc <- fmt.Errorf("goroutine %d iter %d: %s over doc %d: status %d body %q err %v, want %q",
								g, it, kinds[k].target, d, code, body, err, want[k][d])
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			ic := getMetrics(t, ts.URL).IndexCache
			if !ic.Enabled {
				return
			}
			if ic.Bytes > ic.CapBytes {
				t.Fatalf("index cache retains %d bytes over budget %d", ic.Bytes, ic.CapBytes)
			}
			// An entry that shared its request's buffer would be
			// poisoned with it, and never hit.
			if ic.Hits == 0 {
				t.Fatalf("no index cache hits over repeated documents: %+v", ic)
			}
		})
	}
}
