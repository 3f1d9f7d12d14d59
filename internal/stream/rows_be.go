//go:build !(386 || amd64 || amd64p32 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package stream

import "encoding/binary"

// Big-endian architectures cannot alias the little-endian file form;
// rows are byte-swapped through a copy in both directions. Loads are
// then not zero-copy, but the durable artifact stays portable across
// substrates.

func rowsView(b []byte) []uint64 {
	return decodeRows(b)
}

func rowsBytes(rows []uint64) []byte {
	b := make([]byte, len(rows)*8)
	for i, v := range rows {
		binary.LittleEndian.PutUint64(b[i*8:], v)
	}
	return b
}
