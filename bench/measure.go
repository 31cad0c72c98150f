package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"unitdb/internal/stats"
)

// segments is how many equal time slices a run is cut into for
// percentiles. Host stalls of 50–190 ms land in most runs on this box and
// swing a whole-run tail 2× between identical runs; the median over ten
// slices discards the slices a stall hit.
const segments = 10

// sample is one timed observation: when it belongs on the run's timeline
// and what was measured.
type sample struct {
	at time.Duration
	v  float64
}

// percentile is the nearest-rank q-quantile of an ascending-sorted slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(q, len(sorted))-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median is the interpolated median, 0 for no values.
func median(vs []float64) float64 { return stats.Percentile(vs, 50) }

// segmentMedian cuts [from, to) into equal slices, takes the q-quantile of
// the samples inside each slice, and returns the median of those
// quantiles, with the total sample count and the smallest count that lay
// beyond the quantile in any one slice (the guide asks for ten). Empty
// slices are left out.
func segmentMedian(samples []sample, from, to time.Duration, q float64) (v float64, n, beyond int) {
	width := (to - from) / segments
	if width <= 0 {
		return 0, 0, 0
	}
	var buckets [segments][]float64
	for _, s := range samples {
		if s.at < from || s.at >= to {
			continue
		}
		i := int((s.at - from) / width)
		if i >= segments {
			i = segments - 1
		}
		buckets[i] = append(buckets[i], s.v)
	}
	var quantiles []float64
	beyond = -1
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Float64s(b)
		quantiles = append(quantiles, percentile(b, q))
		n += len(b)
		if rest := len(b) - rank(q, len(b)); beyond < 0 || rest < beyond {
			beyond = rest
		}
	}
	if beyond < 0 {
		beyond = 0
	}
	return median(quantiles), n, beyond
}

// usage is a snapshot of the process's cumulative costs.
type usage struct {
	at      time.Time
	cpu     time.Duration // user + system, all threads
	mallocs uint64
}

// readUsage snapshots the process. ReadMemStats stops the world for a few
// tens of microseconds, so it is taken only at segment boundaries.
func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only on a bad argument.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
	}
}

// cost is what an interval of the run consumed.
type cost struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
}

func (u usage) since(earlier usage) cost {
	return cost{wall: u.at.Sub(earlier.at), cpu: u.cpu - earlier.cpu, mallocs: u.mallocs - earlier.mallocs}
}

func (c cost) cpuMicrosPerOp(ops int) float64 {
	return float64(c.cpu.Nanoseconds()) / 1e3 / float64(ops)
}

func (c cost) allocsPerOp(ops int) float64 { return float64(c.mallocs) / float64(ops) }

// cpuUtil is the share of the machine the process kept busy.
func (c cost) cpuUtil() float64 {
	return c.cpu.Seconds() / (c.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}
