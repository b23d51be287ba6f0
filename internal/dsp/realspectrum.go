package dsp

import (
	"math"
	"sync"
)

// realPlan is the length-keyed, immutable state every scratch of one
// FFT length shares.
type realPlan struct {
	half *Plan
	// tw[k] = exp(-j2πk/NFFT) for k = 0..NFFT/4, the split twiddles.
	tw []complex128
	// rel is RecordScratch.SpectrumBound's factor on 2·scale²·NFFT·Σx².
	rel float64
}

// realPlans shares realPlans between scratches, the way planCache
// shares plans.
var realPlans sync.Map // int -> *realPlan

func sharedRealPlan(nfft int) (*realPlan, error) {
	if v, ok := realPlans.Load(nfft); ok {
		return v.(*realPlan), nil
	}
	rp := &realPlan{rel: realBound(nfft)}
	if nfft >= 2 {
		half, err := SharedPlan(nfft / 2)
		if err != nil {
			return nil, err
		}
		rp.half = half
		rp.tw = make([]complex128, nfft/4+1)
		step := -2 * math.Pi / float64(nfft)
		for k := range rp.tw {
			ang := step * float64(k)
			rp.tw[k] = complex(math.Cos(ang), math.Sin(ang))
		}
	}
	actual, _ := realPlans.LoadOrStore(nfft, rp)
	return actual.(*realPlan), nil
}

const (
	// unitRoundoff is u, the float64 unit roundoff.
	unitRoundoff = 0x1p-53
	// twiddleError is μ, the bound on |ŵ - w| for every computed
	// twiddle ŵ (Plan's and the split's): each is cos/sin of
	// fl(fl(-2π/size)·k), whose argument is off by at most 2u·π, and
	// each function adds at most a few ulps of a value of magnitude
	// ≤ 1, so 16u covers both components together.
	twiddleError = 16 * unitRoundoff
)

// gamma is Higham's γ_k = ku/(1-ku).
func gamma(k float64) float64 { return k * unitRoundoff / (1 - k*unitRoundoff) }

// fftRelError is Higham's bound (Accuracy and Stability of Numerical
// Algorithms, 2nd ed., Thm 24.2) on ‖ŷ-y‖₂/‖y‖₂ for a radix-2
// Cooley–Tukey FFT of 2^stages points whose computed twiddles are each
// within μ = twiddleError of exact: stages·η/(1-stages·η),
// η = μ + γ4(√2+μ).
func fftRelError(stages int) float64 {
	eta := twiddleError + gamma(4)*(math.Sqrt2+twiddleError)
	t := float64(stages) * eta
	return t / (1 - t)
}

// realBound is the per-bin bound on |P_fast - P_ref| as a fraction of
// W = 2·scale²·N·Σx² (N = nfft), where x is the windowed record both
// paths transform. The derivation, with S = √N·‖x‖₂ (by Parseval
// ‖X‖₂ = S, and every |X_k| ≤ S):
//
//   - Reference: the N-point FFT is within c_N·S of the exact DFT in
//     every bin, c_N = fftRelError(log2 N): a bin's error is at most
//     the error vector's 2-norm.
//   - Fast: the N/2-point FFT of z (z_m = x_2m + j·x_2m+1, ‖Z‖₂ =
//     √(N/2)·‖x‖₂) errs by at most c_{N/2}·‖Z‖₂ in 2-norm. The split
//     X_k = E_k + W^k·O_k reads Z_k and Z_{N/2-k}, so it carries at
//     most √2 times that into a bin: c_{N/2}·S. Its own rounding (two
//     adds, a complex multiply, the twiddle error, two adds) on values
//     of size ≤ (1+c_{N/2})·S adds at most (10u+μ)(1+c_{N/2})·S.
//   - Power: P = 2·scale²·(re²+im²) rounds with relative error γ4 (the
//     factor 2 is exact). Writing the two per-bin errors as e_f·S and
//     e_r·S, a = e_f + e_r, and using |X̂| ≤ (1+e)·S,
//     |P_fast - P_ref| ≤ ||X̂_f|²-|X̂_r|²|·2scale² + rounding
//     ≤ W·[(2+a)·a + γ4·((1+e_f)² + (1+e_r)²)].
//   - The computed Σx² is within γ_{N+2} of exact, and forming W
//     rounds a few more times: both are folded in as (1+γ_{N+8}).
func realBound(nfft int) float64 {
	return powerBound(splitError(nfft), ReferenceBinError(nfft), nfft)
}

// stages returns log2 of the power of two nfft.
func stages(nfft int) int {
	s := 0
	for m := 1; m < nfft; m <<= 1 {
		s++
	}
	return s
}

// ReferenceBinError returns c_N = fftRelError(log2 nfft), the per-bin
// bound on the reference transform (SharedPlan(nfft), which
// PowerSpectrum and SpectrumScratch.PowerSpectrum run): every bin of
// the computed transform of x is within c_N·√nfft·‖x‖₂ of the exact
// DFT, since a bin's error is at most the error vector's 2-norm.
func ReferenceBinError(nfft int) float64 {
	return fftRelError(stages(nfft))
}

// splitError is the fast path's per-bin error as a fraction of
// S = √N·‖x‖₂ (realBound's derivation): c_{N/2} from the half-length
// transform plus the split's own rounding.
func splitError(nfft int) float64 {
	st := stages(nfft)
	if st == 0 {
		return 0
	}
	cHalf := fftRelError(st - 1)
	return cHalf + (10*unitRoundoff+twiddleError)*(1+cHalf)
}

// powerBound turns per-bin transform errors e₁·S and e₂·S of two paths
// into the bound on their power difference as a fraction of
// W = 2·scale²·N·Σx² (realBound's last two steps).
func powerBound(e1, e2 float64, nfft int) float64 {
	a := e1 + e2
	k := (2+a)*a + gamma(4)*((1+e1)*(1+e1)+(1+e2)*(1+e2))
	return k * (1 + gamma(float64(nfft)+8))
}

// splitPower writes the power of the real record whose M samples are
// packed two to a value in the transformed buf (M = 2·len(buf)):
// p[k] for k = 0..M/2, scaled by c2 (twice that off DC and M/2), with
// tw[k] = e^{-2πik/M} for k ≤ M/4 the split twiddles.
//
// Split: with a = Z_k and b = Z_{H-k} (H = len(buf)),
// E = (a + conj b)/2 and O = -j(a - conj b)/2 are the DFTs of the
// even and odd samples, X_k = E + W^k·O and X_{H-k} =
// conj(E - W^k·O). X_0 and X_H come from Z_0 alone, and
// X_{H/2} = conj(Z_{H/2}).
func splitPower(p []float64, buf, tw []complex128, c2 float64) {
	m := len(buf)
	c2x2 := 2 * c2
	z0 := buf[0]
	dc, ny := real(z0)+imag(z0), real(z0)-imag(z0)
	p[0] = (dc * dc) * c2
	p[m] = (ny * ny) * c2
	for k := 1; k < m-k; k++ {
		a, b := buf[k], buf[m-k]
		er, ei := 0.5*(real(a)+real(b)), 0.5*(imag(a)-imag(b))
		or, oi := 0.5*(imag(a)+imag(b)), 0.5*(real(b)-real(a))
		w := tw[k]
		tr := or*real(w) - oi*imag(w)
		ti := or*imag(w) + oi*real(w)
		xr, xi := er+tr, ei+ti
		p[k] = (xr*xr + xi*xi) * c2x2
		xr, xi = er-tr, ei-ti
		p[m-k] = (xr*xr + xi*xi) * c2x2
	}
	if m >= 2 {
		mid := buf[m/2]
		p[m/2] = (real(mid)*real(mid) + imag(mid)*imag(mid)) * c2x2
	}
}
