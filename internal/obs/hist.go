package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// histStripes is the stripe count of every histogram: enough that a
// campaign pool's workers rarely collide on one stripe mutex, small
// enough that the merge at snapshot time is trivial. Power of two so
// stripe selection is a mask.
const histStripes = 8

// Histogram is a lock-striped fixed-bucket histogram with the same
// mergeable geometry as the mcengine quantile sketch: integer bin
// counts over [Lo, Hi), Under/Over overflow counters, exact min/max,
// plus a running sum for Prometheus exposition. Observe spreads
// writers across stripes; Snapshot merges the stripes into one
// HistSnapshot, and because every stripe datum is an integer count or
// an order-independent extreme, the merged snapshot is exact — the
// property tests pin that stripe merging agrees with a serial
// reference on random streams.
type Histogram struct {
	lo, hi  float64
	bins    int
	cursor  atomic.Uint32 // round-robin stripe spreader
	stripes [histStripes]histStripe
}

// histStripe is one writer shard. The pad keeps neighbouring stripes
// off one cache line under concurrent observers.
type histStripe struct {
	mu       sync.Mutex
	counts   []int64
	under    int64
	over     int64
	n        int64
	sum      float64
	min, max float64
	_        [32]byte
}

func newHistogram(lo, hi float64, bins int) *Histogram {
	h := &Histogram{lo: lo, hi: hi, bins: bins}
	for i := range h.stripes {
		h.stripes[i].counts = make([]int64, bins)
		h.stripes[i].min = math.Inf(1)
		h.stripes[i].max = math.Inf(-1)
	}
	return h
}

// Observe folds one sample into the histogram. Nil-safe.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	s := &h.stripes[h.cursor.Add(1)&(histStripes-1)]
	s.mu.Lock()
	s.n++
	s.sum += x
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	switch {
	case x < h.lo:
		s.under++
	case x >= h.hi:
		s.over++
	default:
		i := int(float64(h.bins) * (x - h.lo) / (h.hi - h.lo))
		if i >= h.bins { // x just below hi with rounding up
			i = h.bins - 1
		}
		s.counts[i]++
	}
	s.mu.Unlock()
}

// Snapshot merges the stripes into one exact, mergeable snapshot.
// Nil-safe (returns the zero snapshot).
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	out := HistSnapshot{
		Lo: h.lo, Hi: h.hi,
		Counts: make([]int64, h.bins),
		Min:    math.Inf(1), Max: math.Inf(-1),
	}
	for i := range h.stripes {
		s := &h.stripes[i]
		s.mu.Lock()
		for b, c := range s.counts {
			out.Counts[b] += c
		}
		out.Under += s.under
		out.Over += s.over
		out.N += s.n
		out.Sum += s.sum
		if s.min < out.Min {
			out.Min = s.min
		}
		if s.max > out.Max {
			out.Max = s.max
		}
		s.mu.Unlock()
	}
	return out
}

// HistSnapshot is a merged, immutable view of a Histogram — the same
// shape as the mcengine sketch (fixed [Lo, Hi) bins, overflow
// counters, exact extremes) plus the exposition Sum. Snapshots of
// identical geometry merge exactly: integer counts make the merge
// associative and commutative up to float summation of Sum.
type HistSnapshot struct {
	Lo, Hi   float64
	Counts   []int64
	Under    int64
	Over     int64
	N        int64
	Sum      float64
	Min, Max float64
}

// Merge folds another snapshot of identical geometry into the
// receiver.
func (s *HistSnapshot) Merge(o HistSnapshot) error {
	if o.N == 0 && len(o.Counts) == 0 {
		return nil
	}
	if o.Lo != s.Lo || o.Hi != s.Hi || len(o.Counts) != len(s.Counts) {
		return fmt.Errorf("obs: merging snapshots of different geometry")
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Under += o.Under
	s.Over += o.Over
	s.N += o.N
	s.Sum += o.Sum
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	return nil
}

// Quantile returns the q-quantile by linear interpolation inside the
// covering bin, mirroring the mcengine sketch; overflow mass resolves
// to the exact extremes. NaN for an empty snapshot.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.N == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := q * float64(s.N)
	cum := float64(s.Under)
	if rank <= cum {
		return s.Min
	}
	w := (s.Hi - s.Lo) / float64(len(s.Counts))
	for i, c := range s.Counts {
		next := cum + float64(c)
		if rank <= next && c > 0 {
			frac := (rank - cum) / float64(c)
			return s.Lo + w*(float64(i)+frac)
		}
		cum = next
	}
	return s.Max
}
