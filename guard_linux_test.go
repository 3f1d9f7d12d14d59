package jsonski_test

import (
	"bytes"
	"strings"
	"syscall"
	"testing"

	"jsonski"
	"jsonski/internal/baseline/domparser"
	"jsonski/internal/gen"
	"jsonski/internal/queries"
)

// TestEngineNoReadPastInput places each generated dataset so that it
// ends exactly at a PROT_NONE page, as a mapped file whose size is a
// multiple of the page size does, with 0, 1 and 63 bytes of trailing
// whitespace. Each of its Table 5 queries runs through Count, RunSink
// and RunSinkExplain, and one on-demand lookup runs through to Close:
// the fast-forward functions and the engine, beyond what the stream
// package's TestNoReadPastInput covers. A read of even one byte past
// the input faults and kills the test binary. Match counts must equal
// the DOM baseline's.
func TestEngineNoReadPastInput(t *testing.T) {
	page := syscall.Getpagesize()
	// The first element of each dataset's top-level collection, by the
	// on-demand dot path and the equivalent JSONPath.
	lookups := map[string][2]string{
		"tt":   {"[0].text", "$[0].text"},
		"bb":   {"pd[0].cp", "$.pd[0].cp"},
		"gmd":  {"[0].gid", "$[0].gid"},
		"nspl": {"dt[0][0]", "$.dt[0][0]"},
		"wm":   {"it[0].nm", "$.it[0].nm"},
		"wp":   {"[0].cl", "$[0].cl"},
	}
	for _, ds := range gen.Names {
		doc, err := gen.Generate(ds, 32<<10, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, trail := range []int{0, 1, 63} {
			size := len(doc) + trail
			span := (size + page - 1) / page * page
			mem, err := syscall.Mmap(-1, 0, span+page, syscall.PROT_READ|syscall.PROT_WRITE,
				syscall.MAP_ANON|syscall.MAP_PRIVATE)
			if err != nil {
				t.Fatalf("mmap: %v", err)
			}
			if err := syscall.Mprotect(mem[span:], syscall.PROT_NONE); err != nil {
				t.Fatalf("mprotect: %v", err)
			}
			data := mem[span-size : span : span]
			copy(data, doc)
			copy(data[len(doc):], strings.Repeat(" ", trail))

			for _, q := range queries.ForDataset(ds) {
				ev, err := domparser.Compile(q.Large)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ev.Count(data)
				if err != nil {
					t.Fatalf("%s dom: %v", q.ID, err)
				}
				cq := jsonski.MustCompile(q.Large)
				var out bytes.Buffer
				sink := jsonski.NewStreamSink(&out)
				counts := map[string]func() (int64, error){
					"Count": func() (int64, error) { return cq.Count(data) },
					"RunSink": func() (int64, error) {
						_, err := cq.RunSink(data, sink)
						return sink.Spans, err
					},
					"RunSinkExplain": func() (int64, error) {
						st, err := cq.RunSinkExplain(data, nil, 0)
						return st.Matches, err
					},
				}
				for name, count := range counts {
					if got, err := count(); err != nil || got != want {
						t.Errorf("%s trail %d %s: %d matches, err %v; the DOM counts %d", q.ID, trail, name, got, err, want)
					}
				}
			}

			l := lookups[ds]
			segs, err := jsonski.ParseDotPath(l[0])
			if err != nil {
				t.Fatal(err)
			}
			var want []byte
			ev, err := domparser.Compile(l[1])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ev.Run(data, func(start, end int) { want = data[start:end] }); err != nil || want == nil {
				t.Fatalf("%s dom: %s answers nothing, err %v", ds, l[1], err)
			}
			d := jsonski.Open(data)
			got, err := d.Lookup(segs...).Raw()
			if err == nil {
				err = d.Close()
			}
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s trail %d: Lookup(%s) = %.40q, err %v; the DOM answers %.40q", ds, trail, l[0], got, err, want)
			}
			if err := syscall.Munmap(mem); err != nil {
				t.Fatal(err)
			}
		}
	}
}
