//go:build !race

// The race detector makes sync.Pool drop items at random, so pooled
// engines and runs allocate again and allocation counts mean nothing.

package jsonski

import (
	"bytes"
	"context"
	"io"
	"testing"
)

// TestRunReaderAllocatesPerRun pins the reader's allocations to a small
// constant per run, whatever the record count: records are framed in
// reused batch buffers, never copied one by one.
func TestRunReaderAllocatesPerRun(t *testing.T) {
	q := MustCompile("$.v")
	sink := NewStreamSink(io.Discard)
	for _, n := range []int{1000, 4000} {
		in := []byte(ndjsonInput(n))
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := q.RunReaderSink(context.Background(), bytes.NewReader(in), sink); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 32 {
			t.Errorf("%d records: %.0f allocations per run, want at most 32", n, allocs)
		}
		t.Logf("%d records: %.0f allocations per run", n, allocs)
	}
}
