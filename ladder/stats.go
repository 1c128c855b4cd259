package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// quantile is stats.Percentile at q in [0, 1], or 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, q*100)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durQuantile is quantile over nanosecond durations, in nanoseconds.
func durQuantile(ds []int64, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return quantile(xs, q)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Runtime counters read through runtime/metrics: cheap enough to read at
// every rep boundary and at the top of every backlog burst, unlike
// runtime.ReadMemStats, which stops the world.
const (
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mAllocObjs   = "/gc/heap/allocs:objects"
	mAllocBytes  = "/gc/heap/allocs:bytes"
	mGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU    = "/cpu/classes/total:cpu-seconds"
)

type rtSample struct {
	heapObjects, allocObjs, allocBytes float64
	gcCPU, totalCPU                    float64
}

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: mHeapObjects}, {Name: mAllocObjs}, {Name: mAllocBytes},
		{Name: mGCCPU}, {Name: mTotalCPU},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{v(0), v(1), v(2), v(3), v(4)}
}

// heapObjectsBytes reads the live-plus-unswept heap object bytes alone.
func heapObjectsBytes() uint64 {
	s := []metrics.Sample{{Name: mHeapObjects}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat: the steal column
// and the sum of all columns. Both are zero where /proc/stat is missing.
func cpuTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 2 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; the guest columns
	// that may follow are already counted in user and nice.
	for i, f := range fields[1:] {
		if i == 8 {
			break
		}
		n, _ := strconv.ParseUint(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
