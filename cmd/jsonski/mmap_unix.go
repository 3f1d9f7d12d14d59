//go:build unix

package main

import (
	"os"
	"syscall"
)

// mapFile maps the first size bytes of f read-only and private, so the
// engine reads the file's pages in place. It reports false when the
// file cannot be mapped; the caller then reads it.
func mapFile(f *os.File, size int64) ([]byte, bool) {
	if size <= 0 || int64(int(size)) != size {
		return nil, false
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE)
	return data, err == nil
}

// unmap releases a mapping made by mapFile. Munmap fails only for a
// range that is not a mapping, and mapFile's result always is one.
func unmap(data []byte) { _ = syscall.Munmap(data) }
