package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie above a reported high
// percentile: with fewer, the value is set by a handful of outliers
// and does not repeat between runs.
const minBeyond = 10

// percentileLadder lists the high percentiles tailPercentile may pick,
// highest first.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤
// 100) and the number of samples above it. xs need not be sorted.
func percentile(xs []float64, p float64) (v float64, beyond int, err error) {
	if len(xs) == 0 {
		return 0, 0, fmt.Errorf("percentile p%g of no samples", p)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps an exact rank such as 99.9% of 10000 from
	// rounding up past itself in floating point.
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank, nil
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) (float64, error) {
	v, _, err := percentile(xs, 50)
	return v, err
}

// highPercentile returns the p-th percentile of xs, refusing when
// fewer than minBeyond samples lie above it.
func highPercentile(xs []float64, p float64) (float64, error) {
	v, beyond, err := percentile(xs, p)
	if err != nil {
		return 0, err
	}
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want at least %d", p, len(xs), beyond, minBeyond)
	}
	return v, nil
}

// tailPercentile picks the highest percentile of the ladder that
// leaves at least minBeyond samples beyond it, and refuses when even
// the median does not.
func tailPercentile(xs []float64) (p, v float64, err error) {
	for _, p := range percentileLadder {
		if v, beyond, err := percentile(xs, p); err == nil && beyond >= minBeyond {
			return p, v, nil
		}
	}
	return 0, 0, fmt.Errorf("%d samples are too few for any percentile with %d beyond it", len(xs), minBeyond)
}

// interval is a closed time range in microseconds.
type interval struct{ start, end float64 }

// selfTime returns the part of parent not covered by any child
// interval; overlapping children are counted once, and child time
// outside parent is ignored.
func selfTime(parent interval, children []interval) float64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = math.Max(c.start, parent.start)
		c.end = math.Min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := 0.0
	cur := interval{start: math.Inf(-1), end: math.Inf(-1)}
	for _, c := range cs {
		if c.start > cur.end {
			if cur.end > cur.start {
				covered += cur.end - cur.start
			}
			cur = c
			continue
		}
		cur.end = math.Max(cur.end, c.end)
	}
	if cur.end > cur.start {
		covered += cur.end - cur.start
	}
	return (parent.end - parent.start) - covered
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name fits the benchmark's metric
// naming rule: letters, digits, '_', '.' and '-', starting with a
// letter or digit, at most 64 characters.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }
