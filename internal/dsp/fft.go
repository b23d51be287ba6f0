// Package dsp provides the signal-processing substrate used throughout
// mstx: fast Fourier transforms, window functions, power-spectrum
// estimation, and the spectral measurements (SNR, SFDR, THD, SINAD,
// ENOB, tone and harmonic power) that a mixed-signal tester's DSP
// pipeline would compute.
//
// All routines are deterministic and safe for concurrent use. The
// only global state is three process-wide caches of immutable tables,
// each filled on first use of a length: transform plans (SharedPlan),
// window tables, and the real-input split plans behind RecordScratch.
// A cached table is bit-identical to a freshly built one, so results
// never depend on what ran before.
package dsp

import (
	"math"
	"math/bits"
)

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPowerOfTwo returns the smallest power of two >= n. It panics if
// n <= 0 or if the result would overflow an int.
func NextPowerOfTwo(n int) int {
	if n <= 0 {
		panic("dsp: NextPowerOfTwo requires n > 0")
	}
	if IsPowerOfTwo(n) {
		return n
	}
	p := 1 << bits.Len(uint(n))
	if p <= 0 {
		panic("dsp: NextPowerOfTwo overflow")
	}
	return p
}

// goertzel evaluates the DFT of real input x at a single bin k using
// the Goertzel recurrence: DFT bin k, up to rounding. PhaseAt reads
// its one bin this way.
func goertzel(x []float64, k int) complex128 {
	n := len(x)
	if n == 0 {
		return 0
	}
	w := 2 * math.Pi * float64(k) / float64(n)
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for _, v := range x {
		s0 = v + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	// With v[m] = x[m] + 2cos(w)·v[m-1] - v[m-2], the DFT bin under the
	// engineering convention X[k] = Σ x[n]·e^{-j2πkn/N} (the same one
	// Plan uses) is X[k] = e^{jw}·s1 - s2.
	re := s1*math.Cos(w) - s2
	im := s1 * math.Sin(w)
	return complex(re, im)
}
