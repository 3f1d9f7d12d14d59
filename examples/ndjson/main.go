// NDJSON: the paper's small-record scenario (Figures 11 and 12) — a
// sequence of independent records processed by a worker pool, one record
// per task.
//
//	go run ./examples/ndjson                 # synthetic Walmart-style items
//	cat items.ndjson | go run ./examples/ndjson '$.nm'
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"jsonski"
	"jsonski/internal/gen"
	"jsonski/internal/ndjson"
)

func main() {
	expr := "$.bmrpr.pr"
	if len(os.Args) > 1 {
		expr = os.Args[1]
	}
	var records [][]byte
	if fi, _ := os.Stdin.Stat(); fi != nil && fi.Mode()&os.ModeCharDevice == 0 {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			log.Fatal(err)
		}
		records = ndjson.Split(nil, data)
	} else {
		var err error
		records, err = gen.GenerateRecords("wm", 4<<20, 3)
		if err != nil {
			log.Fatal(err)
		}
	}

	q := jsonski.MustCompile(expr)
	workers := runtime.GOMAXPROCS(0)

	var total atomic.Int64
	start := time.Now()
	stats, err := q.RunRecordsParallel(records, workers, func(m jsonski.Match) {
		total.Add(1)
	})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("query %s over %d records (%d workers)\n", expr, len(records), workers)
	fmt.Printf("matches: %d (callback saw %d)\n", stats.Matches, total.Load())
	fmt.Printf("throughput: %.0f MB/s, fast-forwarded %.1f%%\n",
		float64(stats.InputBytes)/elapsed.Seconds()/1e6,
		stats.FastForwardRatio()*100)
}
