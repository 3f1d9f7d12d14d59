//go:build !(linux || darwin)

package store

import (
	"io"
	"os"
	"sync"
	"unsafe"
)

// Portable fallback (windows, plan9, ...): the file is read into a
// pooled, 8-byte-aligned buffer instead of mapped. Loads cost one full
// read but steady-state serving still avoids allocation churn — the
// buffer returns to the pool when the last reader releases. The buffer
// is allocated as []uint64 so the row section's alignment is guaranteed
// without mmap's page-aligned base.

const mmapSupported = false

var loadPool sync.Pool // *[]uint64

type mapping struct {
	b      []byte
	backer *[]uint64
}

func mapFile(f *os.File, size int64) (*mapping, error) {
	if size == 0 {
		return &mapping{}, nil
	}
	need := int((size + 7) / 8)
	var backer *[]uint64
	if v := loadPool.Get(); v != nil {
		if p := v.(*[]uint64); cap(*p) >= need {
			backer = p
		}
	}
	if backer == nil {
		s := make([]uint64, need)
		backer = &s
	}
	*backer = (*backer)[:need]
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(*backer))), need*8)[:size]
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), b); err != nil {
		loadPool.Put(backer)
		return nil, &os.PathError{Op: "read", Path: f.Name(), Err: err}
	}
	return &mapping{b: b, backer: backer}, nil
}

func (m *mapping) release() {
	if m.backer != nil {
		loadPool.Put(m.backer)
		m.backer = nil
	}
	m.b = nil
}
