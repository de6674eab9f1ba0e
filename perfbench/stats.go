package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond the reported tail: the
// tail is the highest percentile that still has this many samples past it.
const tailBeyond = 10

// summary summarizes one set of latency samples exactly, from the samples
// themselves rather than from histogram buckets.
type summary struct {
	N          int     `json:"n"`
	P50        float64 `json:"p50"`
	Tail       float64 `json:"tail"`
	TailPct    float64 `json:"tail_pct"`    // percentile the tail sits at
	TailBeyond int     `json:"tail_beyond"` // samples strictly ranked past it
}

// summarize sorts a copy of xs and returns its median and tail.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := summary{N: len(s)}
	if len(s) == 0 {
		return d
	}
	d.P50 = quantileSorted(s, 0.5)
	d.Tail, d.TailPct, d.TailBeyond = tailSorted(s)
	return d
}

// quantileSorted returns the q-quantile of sorted samples, linearly
// interpolated between the two closest ranks (the "type 7" definition:
// rank q·(n−1), so q=0 is the minimum and q=1 the maximum).
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailSorted picks the highest percentile of sorted samples that has at
// least tailBeyond samples ranked beyond it: the (tailBeyond+1)-th largest
// sample, which sits at percentile 100·(n−1−tailBeyond)/(n−1) under the
// quantileSorted definition. With too few
// samples for that, it falls back to the maximum and reports how many
// samples lie beyond it (none).
func tailSorted(s []float64) (value, pct float64, beyond int) {
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], 100, 0
	}
	return s[n-1-tailBeyond], 100 * float64(n-1-tailBeyond) / float64(n-1), tailBeyond
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// mean returns the arithmetic mean of xs (0 when empty).
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

// ratio divides, returning 0 for an empty denominator: a layer the
// workload never reached reports zero work rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
