package main

import (
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// beyond counts the samples strictly above the q-quantile, the sample
// support of a tail percentile.
func beyond(xs []float64, q float64) int {
	cut := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > cut {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// heapMB is the live heap after a full collection.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// latencySummary is the report form of one latency sample.
func latencySummary(xs []float64) map[string]any {
	return map[string]any{
		"n":         len(xs),
		"p50":       quantile(xs, 0.5),
		"p90":       quantile(xs, 0.9),
		"p95":       quantile(xs, 0.95),
		"p99":       quantile(xs, 0.99),
		"beyondP99": beyond(xs, 0.99),
		"max":       quantile(xs, 1),
	}
}
