package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Plan caches the bit-reversal permutation and twiddle factors for a
// fixed power-of-two FFT length. A Plan is immutable after creation
// and safe for concurrent use; Transform allocates nothing.
type Plan struct {
	n   int
	rev []int32
	// tw holds per-stage twiddle tables back to back: stage s (size
	// 2^(s+1)) occupies tw[2^s-1 : 2^(s+1)-1].
	tw []complex128
}

// NewPlan builds a plan for length n (a power of two).
func NewPlan(n int) (*Plan, error) {
	if !IsPowerOfTwo(n) {
		return nil, fmt.Errorf("dsp: plan length %d is not a power of two", n)
	}
	p := &Plan{n: n}
	p.rev = make([]int32, n)
	if n > 1 {
		shift := 64 - uint(bits.Len(uint(n-1)))
		for i := range p.rev {
			p.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
		}
	}
	p.tw = make([]complex128, n-1)
	idx := 0
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := -2 * math.Pi / float64(size)
		for k := 0; k < half; k++ {
			ang := step * float64(k)
			p.tw[idx] = complex(math.Cos(ang), math.Sin(ang))
			idx++
		}
	}
	return p, nil
}

// Len returns the plan's transform length.
func (p *Plan) Len() int { return p.n }

// Transform computes the in-place forward FFT of x using the cached
// tables. len(x) must equal the plan length.
//
// The size-2 and size-4 stages are unrolled and every stage works on
// resliced blocks, so the loops carry no bounds checks; each butterfly
// still computes even ± odd·w with odd·w one complex multiply by the
// stage's table entry, so the result is bit-identical to the plain
// triple loop (transformOracle in the tests).
func (p *Plan) Transform(x []complex128) error {
	if len(x) != p.n {
		return fmt.Errorf("dsp: plan length %d, input %d", p.n, len(x))
	}
	x = x[:len(p.rev)]
	for i, j := range p.rev {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	n := p.n
	if n >= 2 {
		w := p.tw[0]
		for i := 0; i+1 < n; i += 2 {
			b := x[i : i+2 : i+2]
			even, odd := b[0], b[1]*w
			b[0], b[1] = even+odd, even-odd
		}
	}
	if n >= 4 {
		w0, w1 := p.tw[1], p.tw[2]
		for i := 0; i+3 < n; i += 4 {
			b := x[i : i+4 : i+4]
			e0, o0 := b[0], b[2]*w0
			e1, o1 := b[1], b[3]*w1
			b[0], b[2] = e0+o0, e0-o0
			b[1], b[3] = e1+o1, e1-o1
		}
	}
	idx := 3
	for size := 8; size <= n; size <<= 1 {
		half := size >> 1
		tw := p.tw[idx : idx+half : idx+half]
		idx += half
		for start := 0; start < n; start += size {
			lo := x[start : start+half : start+half]
			hi := x[start+half : start+size : start+size]
			hi, tw := hi[:len(lo)], tw[:len(lo)]
			for k, even := range lo {
				odd := hi[k] * tw[k]
				lo[k] = even + odd
				hi[k] = even - odd
			}
		}
	}
	return nil
}

// planCache shares plans between callers; plans are immutable.
var planCache sync.Map // int -> *Plan

// SharedPlan returns the process-wide cached plan for length n (a
// power of two). Plans are immutable and safe to share between
// goroutines, so campaign workers key their scratch buffers off this
// cache instead of rebuilding twiddle tables per worker.
func SharedPlan(n int) (*Plan, error) {
	if v, ok := planCache.Load(n); ok {
		return v.(*Plan), nil
	}
	p, err := NewPlan(n)
	if err != nil {
		return nil, err
	}
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*Plan), nil
}
