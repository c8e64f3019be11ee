package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the reporting rule for percentiles: a percentile is
// reported only when at least this many samples lie beyond it.
const minBeyond = 10

// minClean is the fewest ops the latency percentiles are taken over
// when ops are picked by the steal near them (see steadiest).
const minClean = 200

// tailLadder lists the percentiles a tail summary may report, highest
// first; the summary picks the highest one the rule allows.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// percentile returns the nearest-rank p-quantile of sorted samples, the
// number of samples strictly beyond its rank, and whether that number
// satisfies the minBeyond rule.
func percentile(sorted []float64, p float64) (v float64, beyond int, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, false
	}
	rank := int(math.Ceil(p*float64(n) - 1e-9)) // tolerate p·n landing a rounding error above an integer
	rank = max(1, min(rank, n))
	beyond = n - rank
	return sorted[rank-1], beyond, beyond >= minBeyond
}

// tail returns the highest percentile of tailLadder that has at least
// minBeyond samples beyond it, with its value; ok is false when even
// the median does not qualify.
func tail(sorted []float64) (p, v float64, ok bool) {
	for _, q := range tailLadder {
		if v, _, ok := percentile(sorted, q); ok {
			return q, v, true
		}
	}
	return 0, 0, false
}

// latencySummary describes one class of ops: sample count, median,
// p90 and p99 with the number of samples beyond each, and the tail
// percentile the rule allows.
type latencySummary struct {
	N         int     `json:"n"`
	P50ms     float64 `json:"p50_ms"`
	P50Beyond int     `json:"p50_beyond"`
	P90ms     float64 `json:"p90_ms"`
	P90Beyond int     `json:"p90_beyond"`
	P99ms     float64 `json:"p99_ms"`
	P99Beyond int     `json:"p99_beyond"`
	TailPct   float64 `json:"tail_pct"`
	TailMs    float64 `json:"tail_ms"`
}

func summarize(ms []float64) latencySummary {
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	s := latencySummary{N: len(sorted)}
	s.P50ms, s.P50Beyond, _ = percentile(sorted, 0.5)
	s.P90ms, s.P90Beyond, _ = percentile(sorted, 0.9)
	s.P99ms, s.P99Beyond, _ = percentile(sorted, 0.99)
	if p, v, ok := tail(sorted); ok {
		s.TailPct, s.TailMs = p*100, v
	}
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, reporting 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
