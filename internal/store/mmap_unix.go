//go:build linux || darwin

package store

import (
	"os"
	"syscall"
)

// On linux and darwin a serialized index is memory-mapped read-only:
// load cost is page-cache faults, the kernel shares one physical copy
// across every daemon replica on the machine, and any accidental write
// through the mapped masks faults instead of corrupting shared state
// (the runtime backstop behind stream.Index handing its rows out only
// through WriteRows). The file
// descriptor is closed right after mapping — the mapping, not the fd,
// pins the pages, so an evicted sidecar can be unlinked while readers
// are still streaming over it.

// mmapSupported reports whether mapping is zero-copy on this platform,
// for telemetry and tests.
const mmapSupported = true

// mapping is one file's contents, either mapped or read into memory.
type mapping struct {
	b []byte
}

// mapFile maps size bytes of f read-only.
func mapFile(f *os.File, size int64) (*mapping, error) {
	if size == 0 {
		return &mapping{}, nil
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, &os.PathError{Op: "mmap", Path: f.Name(), Err: err}
	}
	return &mapping{b: b}, nil
}

// release unmaps the pages. The mapping must not be touched afterwards.
func (m *mapping) release() {
	if m.b != nil {
		_ = syscall.Munmap(m.b)
		m.b = nil
	}
}
