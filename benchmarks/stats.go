package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0 <= p <= 1) of sorted by
// linear interpolation between closest ranks (the "inclusive" method:
// p=0 is the minimum, p=1 the maximum). An empty input yields 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns v sorted ascending without touching v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (mean of the two middle values
// for an even count); v is not modified.
func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

// quartiles returns the first quartile, median and third quartile of v
// by the exclusive method, the one Python's
// statistics.quantiles(v, n=4) uses, so the repeatability table can be
// checked against the acceptance rule it was written for. It needs at
// least two values; fewer yield the single value (or 0) three times.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		x := 0.0
		if n == 1 {
			x = s[0]
		}
		return x, x, x
	}
	at := func(k int) float64 {
		// Python: j = k*(n+1)//4 clamped to [1, n-1]; delta = k*(n+1) - 4j;
		// value = (s[j-1]*(4-delta) + s[j]*delta) / 4, which extrapolates
		// past the ends when j was clamped.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// relSpread is the interquartile distance of v as a share of its
// median: the steadiness figure the benchmark contract is judged by.
func relSpread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// mean returns the arithmetic mean of v, 0 when empty.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// allocSnap is the process's cumulative heap allocation counters.
type allocSnap struct {
	mallocs, bytes uint64
}

// readAllocs stops the world briefly to read the allocation counters;
// it is called only at phase boundaries, never inside a timed op.
func readAllocs() allocSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocSnap{mallocs: m.Mallocs, bytes: m.TotalAlloc}
}

// sub returns the counters accumulated since earlier.
func (a allocSnap) sub(earlier allocSnap) allocSnap {
	return allocSnap{mallocs: a.mallocs - earlier.mallocs, bytes: a.bytes - earlier.bytes}
}

// cpuTime returns the process's cumulative user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // Getrusage(RUSAGE_SELF) cannot fail with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM)
// in MB, or 0 where /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// fsTypeOf names the filesystem holding path, from the longest mount
// point in /proc/self/mountinfo that prefixes it ("unknown" elsewhere).
func fsTypeOf(path string) string {
	data, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, bestType := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		// "36 35 98:0 /mnt1 /mnt2 rw,noatime master:1 - ext3 /dev/root rw"
		left, right, ok := strings.Cut(line, " - ")
		if !ok {
			continue
		}
		lf, rf := strings.Fields(left), strings.Fields(right)
		if len(lf) < 5 || len(rf) < 1 {
			continue
		}
		mp := lf[4]
		if path != mp && !strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/") {
			continue
		}
		if len(mp) > best {
			best, bestType = len(mp), rf[0]
		}
	}
	return bestType
}

// kernelRelease returns the running kernel's release string.
func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}
