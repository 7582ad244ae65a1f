package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the midpoint median (mean of the two middle samples when n is
// even), which moves less between runs than a nearest-rank p50 when n is small.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailPercentile applies the reporting rule for timings: beside the median,
// report the highest percentile that still has at least ten samples beyond
// it. With fewer than twenty samples not even the median has ten beyond it,
// so no tail is reported.
func tailPercentile(n int) (p float64, ok bool) {
	if n < 20 {
		return 0, false
	}
	for _, permille := range []int{999, 990, 950, 900, 750, 500} {
		if n*(1000-permille)/1000 >= 10 {
			return float64(permille) / 10, true
		}
	}
	return 0, false
}

// describeTiming renders "median (pXX tail, n=N)" for the human table.
func describeTiming(xs []float64) string {
	if p, ok := tailPercentile(len(xs)); ok {
		return fmt.Sprintf("p%g=%.6g n=%d", p, percentile(xs, p), len(xs))
	}
	return fmt.Sprintf("n=%d, too few for a tail percentile", len(xs))
}

// selfCPU returns the user+system CPU time this process has consumed.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvDur(ru.Utime) + tvDur(ru.Stime)
}

func tvDur(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

// peakRSSMiB reads the high-water resident set of a live process from
// /proc/<pid>/status (VmHWM, in KiB).
func peakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kib, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS restarts the kernel's high-water mark of this process's
// resident set (Linux: writing 5 to clear_refs), so a peak can be read per op
// and the run can report their median instead of one maximum over
// everything the process ever did, which moves far more from run to run.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// userHZ is the unit of the utime/stime fields of /proc/<pid>/stat. It is a
// kernel ABI constant (100 on every Linux architecture Go supports).
const userHZ = 100

// procCPU reads the user+system CPU time of a live process from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted from
	// the closing parenthesis. utime and stime are fields 14 and 15.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed cpu fields in /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / userHZ, nil
}
