//go:build !purego

package smc

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestCPUDetectionMatchesCPUInfo: the AVX detector reports AVX exactly
// when /proc/cpuinfo lists the avx flag, which Linux lists only when
// the CPU has AVX and the kernel saves YMM state — the two facts
// cpuHasAVX asks CPUID and XGETBV for. Other systems skip it.
func TestCPUDetectionMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("no /proc/cpuinfo on " + runtime.GOOS)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(list)
			break
		}
	}
	if flags == nil {
		t.Fatal("/proc/cpuinfo lists no flags")
	}
	if got, listed := cpuHasAVX(), slices.Contains(flags, "avx"); got != listed {
		t.Fatalf("cpuHasAVX() = %v, /proc/cpuinfo lists avx: %v", got, listed)
	}
}
