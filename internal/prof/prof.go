// Package prof wires the stdlib runtime/pprof profilers behind the
// -cpuprofile/-memprofile flags shared by cmd/dhtsim and cmd/dhtsweep,
// so a performance change can attach evidence (EXPERIMENTS.md,
// docs/PERFORMANCE.md). It never reads the wall clock and is inert when
// both paths are empty.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling (when cpuPath != "") and arranges a heap
// snapshot on stop (when memPath != ""). The returned stop function must
// be called exactly once, typically via defer; it reports profile-write
// problems to stderr because by then the command's real output already
// happened.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close() // best-effort cleanup; the profile error wins
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}, nil
}
