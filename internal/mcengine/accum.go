package mcengine

import (
	"fmt"
	"math"
)

// MeanVar is a streaming mean/variance accumulator (Welford) with an
// exact pairwise merge (Chan, Golub & LeVeque), so lane partials can
// be folded in lane order without keeping samples. Merging in a fixed
// lane order makes the floating-point result deterministic.
type MeanVar struct {
	// N is the observation count.
	N int64
	// Mean is the running mean.
	Mean float64
	// M2 is the running sum of squared deviations from the mean.
	M2 float64
}

// Observe folds one sample into the accumulator.
func (a *MeanVar) Observe(x float64) {
	a.N++
	d := x - a.Mean
	a.Mean += d / float64(a.N)
	a.M2 += d * (x - a.Mean)
}

// Merge folds another accumulator into the receiver.
func (a *MeanVar) Merge(b MeanVar) {
	if b.N == 0 {
		return
	}
	if a.N == 0 {
		*a = b
		return
	}
	n := a.N + b.N
	d := b.Mean - a.Mean
	a.M2 += b.M2 + d*d*float64(a.N)*float64(b.N)/float64(n)
	a.Mean += d * float64(b.N) / float64(n)
	a.N = n
}

// Var returns the sample variance (n−1 denominator), 0 for N < 2.
func (a MeanVar) Var() float64 {
	if a.N < 2 {
		return 0
	}
	return a.M2 / float64(a.N-1)
}

// Std returns the sample standard deviation.
func (a MeanVar) Std() float64 { return math.Sqrt(a.Var()) }

// StdErr returns the standard error of the mean, 0 for N == 0.
func (a MeanVar) StdErr() float64 {
	if a.N == 0 {
		return 0
	}
	return a.Std() / math.Sqrt(float64(a.N))
}

// Histogram is a fixed-geometry quantile sketch: integer bin counts
// over [Lo, Hi) plus exact min/max. Integer counts make the merge
// order-independent and exact, so quantile queries are bit-identical
// at any worker count. Resolution is bounded by the bin width; pick
// the range from the problem's scale (e.g. ±6σ of the target).
type Histogram struct {
	// Lo, Hi bound the binned range; samples outside land in the
	// Under/Over overflow counters.
	Lo, Hi float64
	// Counts are the per-bin tallies.
	Counts []int64
	// Under and Over count samples below Lo and at/above Hi.
	Under, Over int64
	// N is the total observation count.
	N int64
	// Min and Max track the exact extremes.
	Min, Max float64
}

// NewHistogram builds a sketch with the given range and bin count.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if !(hi > lo) || bins <= 0 {
		return nil, fmt.Errorf("mcengine: bad histogram geometry [%g,%g)/%d", lo, hi, bins)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, bins),
		Min: math.Inf(1), Max: math.Inf(-1)}, nil
}

// Observe folds one sample into the sketch.
func (h *Histogram) Observe(x float64) {
	h.N++
	if x < h.Min {
		h.Min = x
	}
	if x > h.Max {
		h.Max = x
	}
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
		if i >= len(h.Counts) { // x just below Hi with rounding up
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// MergeHist folds another sketch of identical geometry into the
// receiver.
func (h *Histogram) MergeHist(o *Histogram) error {
	if o == nil {
		return nil
	}
	if o.Lo != h.Lo || o.Hi != h.Hi || len(o.Counts) != len(h.Counts) {
		return fmt.Errorf("mcengine: merging histograms of different geometry")
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Under += o.Under
	h.Over += o.Over
	h.N += o.N
	if o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	return nil
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the covering bin; overflow mass resolves to the exact
// min/max. NaN for an empty sketch.
func (h *Histogram) Quantile(q float64) float64 {
	if h.N == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	rank := q * float64(h.N)
	cum := float64(h.Under)
	if rank <= cum {
		return h.Min
	}
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		next := cum + float64(c)
		if rank <= next && c > 0 {
			frac := (rank - cum) / float64(c)
			return h.Lo + w*(float64(i)+frac)
		}
		cum = next
	}
	return h.Max
}

// ZForConfidence returns the two-sided standard-normal quantile for a
// confidence level (0.95 → ≈1.96) by bisection on the Gaussian CDF.
func ZForConfidence(conf float64) float64 {
	if conf <= 0 {
		return 0
	}
	if conf >= 1 {
		return math.Inf(1)
	}
	p := 0.5 + conf/2 // upper-tail quantile of the two-sided interval
	lo, hi := 0.0, 12.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if 0.5*math.Erfc(-mid/math.Sqrt2) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// ProportionHalfWidth is the normal-approximation confidence half-width
// of a binomial proportion: z·√(p̂(1−p̂)/n). It returns +Inf when the
// trial count is zero (the proportion is unconstrained), and the
// finite-sample floor z·√(1/4n) when p̂ is degenerate (0 or 1) so a
// lucky streak cannot fake convergence.
func ProportionHalfWidth(successes, trials int64, z float64) float64 {
	if trials <= 0 {
		return math.Inf(1)
	}
	n := float64(trials)
	p := float64(successes) / n
	v := p * (1 - p)
	if v < 0.25/n { // degenerate or near-degenerate proportion
		v = 0.25 / n
	}
	return z * math.Sqrt(v/n)
}
