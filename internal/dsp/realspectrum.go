package dsp

import (
	"fmt"
	"math"
	"sync"
)

// RealSpectrumScratch is the fast power-spectrum path for records of
// integer codes: an N-point real spectrum from one N/2-point complex
// transform (SharedPlan(N/2)) plus a split pass, with the window
// applied while the codes are packed two to a complex value (even
// samples in the real part, odd in the imaginary). It does about half
// the butterflies of SpectrumScratch.PowerSpectrum and has no separate
// float conversion loop.
//
// It is NOT bit-identical to PowerSpectrum: the two transforms round
// differently. ErrorBound bounds the difference per bin, so a caller
// that thresholds the spectrum can tell when a decision is too close
// to call and re-decide it on the reference path (spectest's worker
// detector does). Every exported dsp function stays on the reference
// transform.
//
// A RealSpectrumScratch is not safe for concurrent use — create one per
// worker goroutine. Scratches of one length share the immutable window
// table, the half-length plan and the split twiddles, so per-worker
// setup allocates only the packing and power buffers.
type RealSpectrumScratch struct {
	n      int
	win    []float64
	scale  float64 // 1/(cg·n), computed as SpectrumScratch does
	rp     *realPlan
	buf    []complex128 // the NFFT/2 packed samples, transformed in place
	spec   Spectrum
	energy float64 // Σx² of the last windowed record
}

// realPlan is the length-keyed, immutable state every scratch of one
// FFT length shares.
type realPlan struct {
	half *Plan
	// tw[k] = exp(-j2πk/NFFT) for k = 0..NFFT/4, the split twiddles.
	tw []complex128
	// rel is ErrorBound's factor on 2·scale²·NFFT·Σx².
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

// NewRealSpectrumScratch builds a fast-path scratch for records of n
// codes windowed by w. The FFT length is NextPowerOfTwo(n) and the
// spectrum's scaling is PowerSpectrum's.
func NewRealSpectrumScratch(n int, w WindowType) (*RealSpectrumScratch, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dsp: RealSpectrumScratch length %d must be positive", n)
	}
	nfft := NextPowerOfTwo(n)
	rp, err := sharedRealPlan(nfft)
	if err != nil {
		return nil, err
	}
	win := sharedWindow(w, n)
	cg := CoherentGain(win)
	if cg == 0 {
		return nil, fmt.Errorf("dsp: window %v has zero coherent gain", w)
	}
	return &RealSpectrumScratch{
		n:     n,
		win:   win,
		scale: 1 / (cg * float64(n)),
		rp:    rp,
		buf:   make([]complex128, nfft/2),
		spec: Spectrum{
			Power:          make([]float64, nfft/2+1),
			NFFT:           nfft,
			Window:         w,
			ProcessingGain: cg,
			ENBW:           NoiseBandwidth(win),
		},
	}, nil
}

// PowerSpectrum computes the single-sided power spectrum of the codes
// rec, scaled as PowerSpectrum scales it, within ErrorBound of
// SpectrumScratch.PowerSpectrum on the same codes as float64 in every
// bin. len(rec) must equal the scratch length. The returned Spectrum
// aliases scratch memory and is only valid until the next call.
func (s *RealSpectrumScratch) PowerSpectrum(rec []int64, sampleRate float64) (*Spectrum, error) {
	if len(rec) != s.n {
		return nil, fmt.Errorf("dsp: scratch length %d, input %d", s.n, len(rec))
	}
	if sampleRate <= 0 {
		return nil, fmt.Errorf("dsp: PowerSpectrum sample rate %g must be positive", sampleRate)
	}
	s.spec.SampleRate = sampleRate
	p := s.spec.Power
	if s.spec.NFFT == 1 {
		// One point: the transform is the identity, as in the
		// reference.
		x := float64(float64(rec[0]) * s.win[0])
		s.energy = x * x
		p[0] = (x * x) * s.scale * s.scale
		return &s.spec, nil
	}
	// Pack with the window applied. The explicit conversions keep each
	// product rounded, so the transform input is exactly the
	// reference's windowed record. The energy is summed as two
	// interleaved partial sums, so the loop is not one long chain of
	// dependent adds.
	buf, win := s.buf, s.win
	var e0, e1 float64
	i := 0
	for ; 2*i+1 < s.n; i++ {
		a := float64(float64(rec[2*i]) * win[2*i])
		b := float64(float64(rec[2*i+1]) * win[2*i+1])
		e0 += a * a
		e1 += b * b
		buf[i] = complex(a, b)
	}
	if 2*i < s.n {
		a := float64(float64(rec[2*i]) * win[2*i])
		e0 += a * a
		buf[i] = complex(a, 0)
		i++
	}
	clear(buf[i:])
	s.energy = e0 + e1
	if err := s.rp.half.Transform(buf); err != nil {
		return nil, err
	}
	splitPower(p, buf, s.rp.tw, s.scale*s.scale)
	return &s.spec, nil
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

// ErrorBound returns a bound on |P_fast[k] - P_ref[k]| that holds for
// every bin k of the spectrum last computed, where P_ref is
// SpectrumScratch.PowerSpectrum on the same record (as float64, same
// window and length). It is realBound's fraction of the record's
// normalized windowed energy 2·scale²·NFFT·Σx², so it scales with the
// record: about 1e-13 of that energy at NFFT 1024, and 0 for an
// all-zero record (both paths then give exact zeros).
func (s *RealSpectrumScratch) ErrorBound() float64 {
	return s.rp.rel * 2 * s.scale * s.scale * float64(s.spec.NFFT) * s.energy
}
