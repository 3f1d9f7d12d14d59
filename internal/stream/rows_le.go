//go:build 386 || amd64 || amd64p32 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package stream

import "unsafe"

// The rows' file form is little-endian, so on little-endian
// architectures the rows section of a mapped file IS the in-memory
// representation and can be reinterpreted in place — the zero-copy half
// of the store's contract. The big-endian twin of this file decodes a
// copy instead.

// rowsView reinterprets a little-endian byte section as uint64 mask
// rows without copying. Falls back to a decoded copy only if the section
// is misaligned, which the page-aligned file layout prevents.
func rowsView(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 != 0 {
		return decodeRows(b)
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}

// rowsBytes reinterprets mask rows as their little-endian file form
// without copying, for WriteRows.
func rowsBytes(rows []uint64) []byte {
	if len(rows) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(rows))), len(rows)*8)
}
