package jsonski

import (
	"fmt"
	"sync"
	"testing"
)

func TestCacheQueryReuse(t *testing.T) {
	c := NewCache(4)
	q1, err := c.Query("$.a.b")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := c.Query("$.a.b")
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Fatal("second lookup did not return the cached query")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v", got)
	}
}

func TestCacheCompileError(t *testing.T) {
	c := NewCache(4)
	if _, err := c.Query("$["); err == nil {
		t.Fatal("expected compile error")
	}
	if c.Len() != 0 {
		t.Fatal("error was cached")
	}
	if _, err := c.QuerySet("$.a", "$["); err == nil {
		t.Fatal("expected set compile error")
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(2)
	for i := 0; i < 3; i++ {
		if _, err := c.Query(fmt.Sprintf("$.k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	// k0 is the LRU entry and must have been evicted; k2 must still hit.
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d", st.Evictions)
	}
	c.Query("$.k2")
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("k2 should have been a hit: %+v", st)
	}
	c.Query("$.k0")
	if st := c.Stats(); st.Hits != 1 || st.Misses != 4 {
		t.Fatalf("k0 should have been evicted: %+v", st)
	}
}

func TestCacheLRUOrder(t *testing.T) {
	c := NewCache(2)
	c.Query("$.a")
	c.Query("$.b")
	c.Query("$.a") // refresh a; b becomes LRU
	c.Query("$.c") // evicts b
	if _, err := c.Query("$.a"); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits != 2 { // the refresh + the final $.a
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheQuerySetDistinctFromQuery(t *testing.T) {
	c := NewCache(8)
	if _, err := c.Query("$.a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QuerySet("$.a"); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("query and single-element set should be distinct entries, len = %d", c.Len())
	}
	qs1, _ := c.QuerySet("$.a", "$.b")
	qs2, _ := c.QuerySet("$.a", "$.b")
	if qs1 != qs2 {
		t.Fatal("set lookup not cached")
	}
}

// TestCacheQueryOnSetKeyIsParseError: a set's entry is out of reach of
// Query, even through the set key's own text. That text holds a NUL, so
// it must come back as the parser's error, not as the set's entry with
// a nil *Query.
func TestCacheQueryOnSetKeyIsParseError(t *testing.T) {
	c := NewCache(8)
	if _, err := c.QuerySet("$.a"); err != nil {
		t.Fatal(err)
	}
	q, err := c.Query("set\x00$.a")
	if err == nil || q != nil {
		t.Fatalf("Query(%q) = (%v, %v), want a parse error", "set\x00$.a", q, err)
	}
}

// TestCacheConcurrent hammers one cache from many goroutines; run with
// -race. Every goroutine must observe the same compiled pointer per
// expression, and the working set exceeds capacity so eviction races are
// exercised too.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(8)
	exprs := make([]string, 16)
	for i := range exprs {
		exprs[i] = fmt.Sprintf("$.field%d.sub", i)
	}
	data := []byte(`{"field3": {"sub": 42}}`)
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				expr := exprs[(w+i)%len(exprs)]
				q, err := c.Query(expr)
				if err != nil {
					t.Error(err)
					return
				}
				if i%50 == 0 {
					if _, err := q.Run(data, nil); err != nil {
						t.Error(err)
						return
					}
				}
				if i%17 == 0 {
					if _, err := c.QuerySet(exprs[w%len(exprs)], expr); err != nil {
						t.Error(err)
						return
					}
					c.Stats()
					c.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.Size > 8 {
		t.Fatalf("cache exceeded capacity: %+v", st)
	}
}
