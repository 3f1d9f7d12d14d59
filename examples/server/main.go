// Serving quickstart: boot the jsonskid serving layer in-process, POST
// an NDJSON stream to it, and read the matches back incrementally —
// the same flow `cmd/jsonskid` exposes as a standalone daemon.
//
//	go run ./examples/server
package main

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"strings"

	"jsonski/internal/server"
)

func main() {
	// 1. Start the serving layer on a loopback port. In production use
	//    `jsonskid -addr :8490` instead; server.New is the same engine.
	s := server.New(server.Config{Workers: 4})
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: s}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("serving on", base)

	// 2. Stream a small NDJSON body through /query. Matches come back
	//    as NDJSON lines {"record":n,"value":...}, flushed per record.
	body := strings.Join([]string{
		`{"user": {"name": "ada"}, "text": "hello", "retweets": 3}`,
		`{"user": {"name": "lin"}, "text": "bit-parallel!", "retweets": 41}`,
		`{"user": {"name": "kay"}, "text": "skipping", "retweets": 0}`,
	}, "\n") + "\n"
	resp, err := http.Post(base+"/query?path="+url.QueryEscape("$.user.name"),
		"application/x-ndjson", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nPOST /query?path=$.user.name")
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fmt.Println("  ", sc.Text())
	}
	resp.Body.Close()

	// 3. /multi evaluates several paths in one shared pass per record.
	resp, err = http.Post(base+"/multi?path="+url.QueryEscape("$.user.name")+
		"&path="+url.QueryEscape("$.retweets"),
		"application/x-ndjson", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nPOST /multi?path=$.user.name&path=$.retweets")
	sc = bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fmt.Println("  ", sc.Text())
	}
	resp.Body.Close()

	// 4. /metrics reports live counters: bytes in/out, fast-forward
	//    ratios aggregated from engine stats, cache hit rate, queue depth.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Println("\nGET /metrics")
	fmt.Println(string(raw))
}
