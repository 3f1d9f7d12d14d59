package jsonski_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"jsonski"
)

// stressDoc builds a deterministic document whose match counts are easy
// to state: doc i has an "items" array of (i%7)+1 elements and one "id".
func stressDoc(i int) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, `{"id":%d,"items":[`, i)
	n := i%7 + 1
	for j := 0; j < n; j++ {
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"v":%d,"pad":"%s"}`, j, strings.Repeat("x", 50+i%13))
	}
	b.WriteString(`],"tail":null}`)
	return []byte(b.String())
}

func stressItems(i int) int { return i%7 + 1 }

// TestStressSharedCaches hammers the compiled-query Cache and a
// deliberately undersized IndexCache from many goroutines sharing a
// small working set of documents, so entries are constantly evicted
// while other goroutines still stream over acquired indexes. Run under
// -race this is the concurrency-soundness test for both caches; the
// per-iteration count checks make silent mask corruption visible.
func TestStressSharedCaches(t *testing.T) {
	const (
		goroutines = 8
		iters      = 300
		docs       = 8
	)
	exprs := []string{"$.items[*]", "$.id", "$.items[1:3]", "$.items[*].v"}
	expected := make(map[string][docs]int64)
	for _, expr := range exprs {
		q := jsonski.MustCompile(expr)
		var counts [docs]int64
		for d := 0; d < docs; d++ {
			n, err := q.Count(stressDoc(d))
			if err != nil {
				t.Fatal(err)
			}
			counts[d] = n
		}
		expected[expr] = counts
	}

	// Budget roughly 2.5 documents so Gets constantly evict.
	probe := jsonski.BuildIndex(stressDoc(6))
	budget := int64(probe.Len()+probe.MaskBytes()) * 5 / 2
	probe.Release()

	qcache := jsonski.NewCache(3) // smaller than exprs+set -> compile churn too
	icache := jsonski.NewIndexCache(budget)
	var gets atomic.Int64

	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 7919))
			for it := 0; it < iters; it++ {
				d := rng.Intn(docs)
				doc := stressDoc(d)
				ix := icache.Get(doc)
				gets.Add(1)
				switch it % 3 {
				case 0, 1:
					expr := exprs[rng.Intn(len(exprs))]
					q, err := qcache.Query(expr)
					if err != nil {
						errc <- err
						return
					}
					n := int64(0)
					if _, err := q.RunIndexed(ix, func(jsonski.Match) { n++ }); err != nil {
						errc <- err
						return
					}
					if want := expected[expr][d]; n != want {
						errc <- fmt.Errorf("goroutine %d iter %d: %s over doc %d: %d matches, want %d",
							g, it, expr, d, n, want)
						return
					}
				case 2:
					qs, err := qcache.QuerySet(exprs...)
					if err != nil {
						errc <- err
						return
					}
					per := make([]int64, len(exprs))
					if _, err := qs.RunIndexed(ix, func(m jsonski.SetMatch) { per[m.Query]++ }); err != nil {
						errc <- err
						return
					}
					for qi, expr := range exprs {
						if want := expected[expr][d]; per[qi] != want {
							errc <- fmt.Errorf("goroutine %d iter %d: set %s over doc %d: %d matches, want %d",
								g, it, expr, d, per[qi], want)
							return
						}
					}
				}
				ix.Release()
				if it%97 == 0 {
					icache.Purge() // eviction storm while others hold references
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := icache.Stats()
	if st.Hits+st.Misses != gets.Load() {
		t.Fatalf("hits %d + misses %d != gets %d", st.Hits, st.Misses, gets.Load())
	}
	if st.Bytes > st.CapBytes {
		t.Fatalf("retained %d bytes over budget %d", st.Bytes, st.CapBytes)
	}
	if st.Entries != icache.Len() {
		t.Fatalf("stats entries %d != Len %d", st.Entries, icache.Len())
	}
	if qs := qcache.Stats(); qs.Hits+qs.Misses == 0 {
		t.Fatal("query cache never consulted")
	}
	icache.Purge()
	if got := icache.Len(); got != 0 {
		t.Fatalf("Len after final Purge = %d", got)
	}
}
