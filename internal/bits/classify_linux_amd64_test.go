package bits

import (
	"bufio"
	"os"
	"strings"
	"testing"
)

// TestVectorKernelSelected guards CPUID detection: a wrong CPUID or XCR0
// bit would fall back to SWAR silently, with every differential test
// still passing. Linux lists "avx2" in /proc/cpuinfo only when the CPU
// has it and the kernel enabled the YMM state, so then Classify must run
// the vector kernel.
func TestVectorKernelSelected(t *testing.T) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok || strings.TrimSpace(key) != "flags" {
			continue
		}
		for _, flag := range strings.Fields(val) {
			if flag == "avx2" {
				if !Vectorized() {
					t.Fatal("/proc/cpuinfo lists avx2, but Classify runs the SWAR half")
				}
				return
			}
		}
		t.Skip("/proc/cpuinfo does not list avx2")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
