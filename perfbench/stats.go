package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentile returns the highest percentile that leaves at least ten
// of n samples beyond it, 100·(1−10/n), or 0 for fewer than eleven
// samples. A percentile with fewer samples beyond it is decided by a
// handful of outliers and does not repeat from run to run.
func tailPercentile(n int) float64 {
	if n <= 10 {
		return 0
	}
	return 100 * (1 - 10/float64(n))
}

// quantile returns the p-th percentile of sorted by the nearest-rank rule:
// the smallest sample with at least p% of the samples at or below it.
func quantile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// latencies summarizes one request class's samples.
type latencies struct {
	n        int
	p50, p90 time.Duration
	// tail is the sample with exactly ten beyond it, at percentile tailP.
	tailP float64
	tail  time.Duration
	// p99 has ten samples beyond it only when tailP >= 99, i.e. n >= 1000.
	p99 time.Duration
}

func summarize(samples []time.Duration) latencies {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	l := latencies{n: len(s), p50: quantile(s, 50), p90: quantile(s, 90), tailP: tailPercentile(len(s))}
	if l.tailP > 0 {
		l.tail = s[len(s)-11]
	}
	l.p99 = quantile(s, 99)
	return l
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the middle value (mean of the middle two for even n).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
