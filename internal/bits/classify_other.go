//go:build !amd64

package bits

// hasAVX2 is false off amd64: Classify always runs the SWAR half.
const hasAVX2 = false

// classifyAVX2 exists only so Classify and the differential tests
// compile on every architecture; hasAVX2 keeps it unreachable.
func classifyAVX2(*Masks, *[WordSize]byte) {
	panic("bits: no vector kernel on this architecture")
}
