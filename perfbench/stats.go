package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs, or 0 for
// no samples. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// mean returns sum/n, or 0 when n is 0.
func mean(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// gcCPU reads the CPU time the garbage collector has spent in this
// process so far, background workers and allocation assists together. The
// collector runs at its default setting throughout, so its pauses and
// assists land in the timed calls that cause them; this is only the
// per-layer view of that share (runtime.gc_ms_per_op).
func gcCPU() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}
