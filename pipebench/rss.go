package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// resetPeakRSS collects garbage, returns freed memory to the OS and resets
// the kernel's resident-set high-water mark, so the next peakRSSMB counts
// only what runs after it, from the same starting heap.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// gcWatch measures garbage-collector activity between start and stop.
type gcWatch struct{ before runtime.MemStats }

func startGC() *gcWatch {
	w := &gcWatch{}
	runtime.ReadMemStats(&w.before)
	return w
}

// stop returns the GC cycles run since start and the p99 of their pause
// times (over the most recent 256 cycles the runtime keeps).
func (w *gcWatch) stop() (cycles int, pauseP99 time.Duration) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	cycles = int(after.NumGC - w.before.NumGC)
	n := min(cycles, len(after.PauseNs))
	pauses := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		i := (int(after.NumGC) - 1 - k + len(after.PauseNs)) % len(after.PauseNs)
		pauses = append(pauses, float64(after.PauseNs[i]))
	}
	if len(pauses) == 0 {
		return cycles, 0
	}
	p, _ := percentile(pauses, 99)
	return cycles, time.Duration(p)
}

// allocWatch measures heap allocation between start and stop.
type allocWatch struct{ bytes, objects uint64 }

func startAlloc() allocWatch {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocWatch{m.TotalAlloc, m.Mallocs}
}

func (a allocWatch) stop() (bytes, objects uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc - a.bytes, m.Mallocs - a.objects
}
