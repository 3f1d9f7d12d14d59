package jsonski_test

import (
	"bytes"
	"fmt"
	"testing"

	"jsonski"
)

// countIndexed runs expr over ix and returns the match count.
func countIndexed(t *testing.T, expr string, ix *jsonski.Index) int {
	t.Helper()
	q, err := jsonski.Compile(expr)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := q.RunIndexed(ix, func(jsonski.Match) { n++ }); err != nil {
		t.Fatal(err)
	}
	return n
}

// entryCost reproduces the cache's accounting for one document: the
// retained bytes plus the mask buffer.
func entryCost(doc []byte) int64 {
	ix := jsonski.BuildIndex(doc)
	defer ix.Release()
	return int64(len(doc) + ix.MaskBytes())
}

func TestIndexCacheHitMiss(t *testing.T) {
	ic := jsonski.NewIndexCache(1 << 20)
	doc := []byte(`{"a":[1,2,3]}`)

	ix1 := ic.Get(doc)
	if got := countIndexed(t, "$.a[*]", ix1); got != 3 {
		t.Fatalf("matches = %d, want 3", got)
	}
	ix1.Release()
	// Same content in a different buffer must hit.
	ix2 := ic.Get(append([]byte(nil), doc...))
	if got := countIndexed(t, "$.a[*]", ix2); got != 3 {
		t.Fatalf("matches after hit = %d, want 3", got)
	}
	ix2.Release()

	st := ic.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 1 hit, 1 entry", st)
	}
	if st.BytesIndexed != int64(len(doc)) {
		t.Fatalf("BytesIndexed = %d, want %d", st.BytesIndexed, len(doc))
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", st.HitRate())
	}

	ic.Purge()
	if ic.Len() != 0 {
		t.Fatalf("Len after Purge = %d", ic.Len())
	}
}

func TestIndexCacheEvictsLRU(t *testing.T) {
	mkdoc := func(i int) []byte {
		return []byte(fmt.Sprintf(`{"id":%d,"pad":%q}`, i, bytes.Repeat([]byte{'x'}, 80)))
	}
	// Budget exactly two same-sized entries; a third insert evicts the
	// least recently used.
	ic := jsonski.NewIndexCache(2 * entryCost(mkdoc(0)))
	for i := 0; i < 2; i++ {
		ic.Get(mkdoc(i)).Release()
	}
	ic.Get(mkdoc(0)).Release() // touch doc 0 so doc 1 is now LRU
	ic.Get(mkdoc(2)).Release() // evicts doc 1
	st := ic.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries", st)
	}
	if st.Bytes > st.CapBytes {
		t.Fatalf("retained %d bytes over budget %d", st.Bytes, st.CapBytes)
	}
	// Doc 0 must still be resident, doc 1 must not.
	ic.Get(mkdoc(0)).Release()
	ic.Get(mkdoc(1)).Release()
	st2 := ic.Stats()
	if hits := st2.Hits - st.Hits; hits != 1 {
		t.Fatalf("expected exactly the surviving doc to hit, got %d hits", hits)
	}
}

func TestIndexCacheOversizedDocumentNotCached(t *testing.T) {
	ic := jsonski.NewIndexCache(64) // smaller than any doc + mask cost
	doc := []byte(`{"a":[1,2,3],"pad":"` + string(bytes.Repeat([]byte{'y'}, 100)) + `"}`)
	ix := ic.Get(doc)
	if got := countIndexed(t, "$.a[*]", ix); got != 3 {
		t.Fatalf("matches = %d, want 3", got)
	}
	if ic.Len() != 0 {
		t.Fatalf("oversized doc was cached (len=%d)", ic.Len())
	}
	ix.Release()
	if st := ic.Stats(); st.Misses != 1 || st.Hits != 0 || st.Bytes != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestIndexCacheEvictionWhileInUse pins the refcounting contract: an
// index evicted from the cache stays fully usable for readers that
// acquired it before the eviction.
func TestIndexCacheEvictionWhileInUse(t *testing.T) {
	docA := []byte(`{"a":[10,20,30]}`)
	docB := []byte(`{"b":[true,false]}`)
	ic := jsonski.NewIndexCache(entryCost(docA) + 8) // holds exactly one small entry

	ixA := ic.Get(docA)
	if ic.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ic.Len())
	}
	ixB := ic.Get(docB) // over budget -> docA's entry evicted
	if st := ic.Stats(); st.Evictions == 0 {
		t.Fatalf("expected an eviction, stats = %+v", st)
	}
	// ixA was evicted but is still referenced by us: streaming over it
	// must still work.
	if got := countIndexed(t, "$.a[*]", ixA); got != 3 {
		t.Fatalf("evicted-but-held index: matches = %d, want 3", got)
	}
	ixA.Release()
	ixB.Release()
}

// TestIndexCacheDefaultBudget checks the zero-value budget selection.
func TestIndexCacheDefaultBudget(t *testing.T) {
	ic := jsonski.NewIndexCache(0)
	if st := ic.Stats(); st.CapBytes != jsonski.DefaultIndexCacheBytes {
		t.Fatalf("CapBytes = %d, want %d", st.CapBytes, jsonski.DefaultIndexCacheBytes)
	}
}

// TestIndexCacheKeepsItsOwnCopy pins Get's ownership contract: once the
// returned index is released the cache holds no reference to the
// caller's buffer, so the caller may overwrite it and a later Get of
// the original bytes still hits with the original answers.
func TestIndexCacheKeepsItsOwnCopy(t *testing.T) {
	ic := jsonski.NewIndexCache(1 << 20)
	orig := []byte(`{"a":{"b":[10,20,30]},"c":"keep"}`)
	buf := bytes.Clone(orig)

	ix := ic.Get(buf)
	if got := countIndexed(t, "$.a.b[*]", ix); got != 3 {
		t.Fatalf("miss: matches = %d, want 3", got)
	}
	ix.Release()
	// The caller reuses its buffer for another document of the same
	// length, as a pooled request buffer would.
	copy(buf, bytes.Repeat([]byte(" "), len(buf)))
	copy(buf, `[0]`)

	ix = ic.Get(orig)
	defer ix.Release()
	if st := ic.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	if !bytes.Equal(ix.Data(), orig) {
		t.Fatalf("cached document = %q, want %q", ix.Data(), orig)
	}
	q := jsonski.MustCompile("$.a.b[*]")
	var vals []string
	if _, err := q.RunIndexed(ix, func(m jsonski.Match) { vals = append(vals, string(m.Value)) }); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(vals); got != "[10 20 30]" {
		t.Fatalf("answers = %s, want [10 20 30]", got)
	}
}
