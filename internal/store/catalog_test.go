package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"jsonski/internal/stream"
)

func mustPut(t *testing.T, c *Catalog, data []byte, spans []Span) {
	t.Helper()
	ix, _, err := c.Put(data, spans)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	ix.Release()
}

func TestCatalogPutGet(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCatalog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	doc := testDoc(2000)
	if ix, _ := c.Get(doc); ix != nil {
		t.Fatal("Get hit on empty catalog")
	}
	mustPut(t, c, doc, nil)
	ix, _ := c.Get(doc)
	if ix == nil {
		t.Fatal("Get missed after Put")
	}
	if !ix.Mapped() {
		t.Fatal("catalog index should be mapped")
	}
	if !bytes.Equal(ix.Data(), doc) {
		t.Fatal("catalog returned wrong document")
	}
	ix.Release()

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Builds != 1 || st.Entries != 1 {
		t.Fatalf("stats after put/get: %+v", st)
	}
	if st.Bytes <= 0 || st.Bytes != c.Stats().Bytes {
		t.Fatalf("byte accounting: %+v", st)
	}

	// Put of an already-cataloged document must not rebuild.
	mustPut(t, c, doc, nil)
	if st := c.Stats(); st.Builds != 1 {
		t.Fatalf("duplicate Put rebuilt: %+v", st)
	}

	// The sidecar must exist on disk under its content-hash name.
	want := filepath.Join(dir, fmt.Sprintf("%016x", ContentHash(doc))+Ext)
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("sidecar missing: %v", err)
	}
}

func TestCatalogWarmRestart(t *testing.T) {
	dir := t.TempDir()
	docA, docB := testDoc(1500), testDoc(3500)

	c1, err := OpenCatalog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, c1, docA, nil)
	mustPut(t, c1, docB, []Span{{0, 10}})
	c1.Close()

	// A second catalog over the same directory — a restarted daemon —
	// must serve both documents with zero builds.
	c2, err := OpenCatalog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if st := c2.Stats(); st.Opens != 2 || st.Entries != 2 || st.Builds != 0 {
		t.Fatalf("warm stats: %+v", st)
	}
	for _, doc := range [][]byte{docA, docB} {
		ix, _ := c2.Get(doc)
		if ix == nil {
			t.Fatal("warm catalog missed")
		}
		ix.Release()
	}
	if st := c2.Stats(); st.Hits != 2 || st.Builds != 0 {
		t.Fatalf("warm serving rebuilt: %+v", st)
	}
}

func TestCatalogInvalidation(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenCatalog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	doc := testDoc(1200)
	mustPut(t, c1, doc, nil)
	c1.Close()

	side := filepath.Join(dir, fmt.Sprintf("%016x", ContentHash(doc))+Ext)
	// Corrupt the committed sidecar, drop a torn temp file, and drop a
	// misnamed but valid-looking file.
	b, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	b[pageSize+3] ^= 1
	if err := os.WriteFile(side, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(side+".tmp42", []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "not-an-index.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCatalog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st := c2.Stats()
	if st.Entries != 0 || st.Invalidated != 2 {
		t.Fatalf("invalidation stats: %+v", st)
	}
	if _, err := os.Stat(side); !os.IsNotExist(err) {
		t.Fatal("corrupt sidecar not removed")
	}
	if _, err := os.Stat(side + ".tmp42"); !os.IsNotExist(err) {
		t.Fatal("torn temp file not removed")
	}
	// Unrelated files are left alone.
	if _, err := os.Stat(filepath.Join(dir, "not-an-index.txt")); err != nil {
		t.Fatal("unrelated file removed")
	}
}

func TestCatalogEvictionAndDelete(t *testing.T) {
	dir := t.TempDir()
	// Budget fits roughly two sidecars of ~3 pages each.
	c, err := OpenCatalog(dir, 6*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var docs [][]byte
	for i := 0; i < 4; i++ {
		docs = append(docs, []byte(fmt.Sprintf(`{"doc":%d,"pad":%q}`, i, bytes.Repeat([]byte{'x'}, 300))))
	}
	for _, d := range docs {
		mustPut(t, c, d, nil)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under tight budget: %+v", st)
	}
	if st.Bytes > 6*pageSize {
		t.Fatalf("over budget: %+v", st)
	}
	// Evicted sidecars are unlinked; surviving ones are on disk.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != st.Entries {
		t.Fatalf("disk has %d sidecars, catalog has %d entries", len(ents), st.Entries)
	}

	// Delete the most recent entry.
	last := ContentHash(docs[len(docs)-1])
	if !c.Contains(last) {
		t.Fatal("most recent entry evicted unexpectedly")
	}
	if !c.Delete(last) {
		t.Fatal("Delete reported no entry")
	}
	if c.Contains(last) {
		t.Fatal("entry survives Delete")
	}
	if c.Delete(last) {
		t.Fatal("double Delete reported an entry")
	}
	if _, err := os.Stat(c.pathFor(last)); !os.IsNotExist(err) {
		t.Fatal("Delete left the sidecar on disk")
	}
}

// TestCatalogEvictWhileMapped deletes an entry while a reader holds its
// index; the reader's masks must stay valid until its Release.
func TestCatalogEvictWhileMapped(t *testing.T) {
	c, err := OpenCatalog(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	doc := testDoc(5000)
	mustPut(t, c, doc, nil)
	ix, _ := c.Get(doc)
	if ix == nil {
		t.Fatal("miss")
	}
	want := stream.NewIndex(doc)
	defer want.Release()

	if !c.Delete(ContentHash(doc)) {
		t.Fatal("Delete failed")
	}
	// Mapping must still be intact: compare every row.
	if i := diffRow(rowBytes(t, ix), rowBytes(t, want)); i >= 0 {
		t.Fatalf("row %d diverged after delete-while-mapped", i)
	}
	ix.Release()
}

// TestCatalogConcurrent is the -race stress: concurrent Put/Get over a
// working set larger than the budget, so loads race evictions and
// readers hold indexes across concurrent unlinks.
func TestCatalogConcurrent(t *testing.T) {
	c, err := OpenCatalog(t.TempDir(), 8*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var docs [][]byte
	for i := 0; i < 8; i++ {
		docs = append(docs, []byte(fmt.Sprintf(`{"doc":%d,"pad":%q}`, i, bytes.Repeat([]byte{'y'}, 200+13*i))))
	}
	const workers = 8
	const rounds = 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				doc := docs[(w+r)%len(docs)]
				ix, _ := c.Get(doc)
				if ix == nil {
					var err error
					ix, _, err = c.Put(doc, nil)
					if err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				}
				if !bytes.Equal(ix.Data(), doc) {
					t.Error("index serves wrong document")
				}
				// Read every row so the race detector sees reads
				// overlapping any misbehaving unmap.
				var rows bytes.Buffer
				_ = ix.WriteRows(&rows)
				ix.Release()
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("stress never evicted (budget too large?): %+v", st)
	}
}

func TestCatalogEntries(t *testing.T) {
	c, err := OpenCatalog(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	doc := []byte(`{"a":1}` + "\n" + `{"b":2}` + "\n")
	mustPut(t, c, doc, []Span{{0, 7}, {8, 15}})
	ents := c.Entries()
	if len(ents) != 1 {
		t.Fatalf("Entries: %+v", ents)
	}
	e := ents[0]
	if e.Hash != fmt.Sprintf("%016x", ContentHash(doc)) || e.DocBytes != len(doc) || e.Records != 2 || e.FileBytes <= 0 {
		t.Fatalf("entry info: %+v", e)
	}
}

func TestCatalogClosed(t *testing.T) {
	c, err := OpenCatalog(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	doc := testDoc(800)
	mustPut(t, c, doc, nil)
	c.Close()
	if ix, _ := c.Get(doc); ix != nil {
		t.Fatal("Get hit after Close")
	}
	if _, _, err := c.Put(doc, nil); err == nil {
		t.Fatal("Put succeeded after Close")
	}
}
