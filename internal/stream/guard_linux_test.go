package stream

import (
	"syscall"
	"testing"

	"jsonski/internal/bits"
)

// TestNoReadPastInput places inputs of every length from 0 to 130 so
// they end exactly at a PROT_NONE page, as a caller's mmap'ed file may,
// and runs the stage-1 classifier, the index build and a lazy stream
// pass over each. A read of even one byte past the input faults and
// kills the test binary.
func TestNoReadPastInput(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	const pattern = `{"a":[1,"x\"y",{"b":null}],"c":"\\\\"} `
	for i := 0; i < page; i++ {
		mem[i] = pattern[i%len(pattern)]
	}
	for n := 0; n <= 130; n++ {
		data := mem[page-n : page : page]
		var m bits.Masks
		for off := 0; off <= n; off += bits.WordSize {
			bits.Classify(&m, data[off:])
		}
		NewIndex(data).Release()
		s := New(data)
		for {
			for meta := Meta(0); meta < NumMeta; meta++ {
				s.Mask(meta)
			}
			s.WhitespaceMask()
			s.StopMaskFrom()
			s.AttrStopMaskFrom()
			s.TermMaskFrom()
			if !s.NextWord() {
				break
			}
		}
	}
}
