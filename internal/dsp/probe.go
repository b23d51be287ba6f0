package dsp

import (
	"fmt"
	"math"
)

// ProbeScratch computes a few bins of a record's power spectrum
// without its full transform: every stride-th bin (k = 0, stride,
// 2·stride, …, NFFT/2) from the windowed record folded mod
// M = NFFT/stride, and a fixed list of other bins by direct DFT.
// Folding is exact aliasing: with y_t = Σ_r x[t + r·M],
//
//	X[stride·j] = Σ_{t<M} y_t·e^{-2πi·jt/M},
//
// so the M-point real transform of y (one M/2-point complex transform
// plus a split, as RealSpectrumScratch does it) gives those bins. The
// direct bins use the half fold: with H = NFFT/2,
// s_t = x_t + x_{t+H} and d_t = x_t − x_{t+H}, X[b] is the H-term sum
// of s (b even) or d (b odd) against e^{-2πi·bt/NFFT}; y is s folded
// further. Powers are scaled as PowerSpectrum scales them.
//
// Like RealSpectrumScratch it is NOT bit-identical to PowerSpectrum;
// ErrorBound bounds the difference in every probed bin. Load and
// Window also serve callers that need the record exactly as the
// reference transform sees it: the windowed codes fl(code·w_t), their
// energy, and their L1 distance to another windowed record.
//
// A ProbeScratch is not safe for concurrent use — create one per
// worker goroutine. Scratches share the window table, the fold
// length's plan and split twiddles, and the NFFT-point plan whose last
// stage gives the direct bins' twiddles.
type ProbeScratch struct {
	n     int
	nfft  int
	win   []float64
	scale float64 // 1/(cg·n), as SpectrumScratch computes it
	rp    *realPlan
	bins  []int
	// twRe[i][t], twIm[i][t] are e^{-2πi·bins[i]·t/NFFT} for t < H,
	// each within twiddleError of exact.
	twRe, twIm [][]float64
	rel        float64 // ErrorBound's factor on 2·scale²·NFFT·Σx²

	xw     []float64 // the windowed record of the last Load, zero-padded to NFFT
	energy float64   // its Σx²
	sum    []float64 // s, the half fold
	dif    []float64 // d
	fold   []float64 // y
	buf    []complex128
	power  []float64 // power[j] is bin stride·j
	direct []float64 // direct[i] is bin bins[i]
}

// NewProbeScratch builds a probe for records of n codes windowed by w,
// reading every stride-th bin (stride a power of two, 2 ≤ stride ≤
// NFFT/2, NFFT = NextPowerOfTwo(n)) and the listed bins (each in
// 0..NFFT/2).
func NewProbeScratch(n int, w WindowType, stride int, bins []int) (*ProbeScratch, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dsp: ProbeScratch length %d must be positive", n)
	}
	nfft := NextPowerOfTwo(n)
	if !IsPowerOfTwo(stride) || stride < 2 || nfft < 2*stride {
		return nil, fmt.Errorf("dsp: probe stride %d needs a power of two in 2..NFFT/2 = %d", stride, nfft/2)
	}
	for _, b := range bins {
		if b < 0 || b > nfft/2 {
			return nil, fmt.Errorf("dsp: probe bin %d outside 0..%d", b, nfft/2)
		}
	}
	m := nfft / stride
	rp, err := sharedRealPlan(m)
	if err != nil {
		return nil, err
	}
	full, err := SharedPlan(nfft)
	if err != nil {
		return nil, err
	}
	win := sharedWindow(w, n)
	cg := CoherentGain(win)
	if cg == 0 {
		return nil, fmt.Errorf("dsp: window %v has zero coherent gain", w)
	}
	// The fold sums stride values per sample in stride/2 ≤ stride−1
	// roundings (γ_{stride-1} of ‖x‖₁ ≤ S in every bin) and its
	// transform errs by splitError(M) of √M·‖y‖₂ ≤ (1+γ_{stride-1})·S.
	// A direct bin sums H products of s or d (each within u of
	// exact, so u·‖x‖₁ in the bin) with twiddles within μ: μ·‖x‖₁ plus
	// √2·γ_{NFFT+1}(1+μ)·‖x‖₁ of rounding, all scaled by (1+u) for
	// ‖s‖₁, ‖d‖₁ ≤ (1+u)·‖x‖₁. ErrorBound takes the larger of the two.
	gf := gamma(float64(stride - 1))
	eFold := gf + splitError(m)*(1+gf)
	eDirect := unitRoundoff + (twiddleError+math.Sqrt2*gamma(float64(nfft+1))*(1+twiddleError))*(1+unitRoundoff)
	s := &ProbeScratch{
		n:     n,
		nfft:  nfft,
		win:   win,
		scale: 1 / (cg * float64(n)),
		rp:    rp,
		bins:  append([]int(nil), bins...),
		twRe:  make([][]float64, len(bins)),
		twIm:  make([][]float64, len(bins)),
		rel:   powerBound(max(eFold, eDirect), ReferenceBinError(nfft), nfft),
		buf:   make([]complex128, m/2),
	}
	half := nfft / 2
	floats := make([]float64, nfft+2*half+m+m/2+1+len(bins)+2*half*len(bins))
	take := func(k int) []float64 {
		f := floats[:k:k]
		floats = floats[k:]
		return f
	}
	s.xw, s.sum, s.dif = take(nfft), take(half), take(half)
	s.fold, s.power, s.direct = take(m), take(m/2+1), take(len(bins))
	// The plan's last stage holds e^{-2πik/NFFT} for k < NFFT/2; the
	// other half of the circle is its exact negation.
	circle := full.tw[half-1:]
	for i, b := range bins {
		s.twRe[i], s.twIm[i] = take(half), take(half)
		for t := range half {
			k := b * t % nfft
			w := circle[k%half]
			if k >= half {
				w = -w
			}
			s.twRe[i][t], s.twIm[i][t] = real(w), imag(w)
		}
	}
	return s, nil
}

// Window writes dst[t] = fl(rec[t]·w_t), the values the reference
// transform reads, and returns their Σx². len(rec) and len(dst) must
// equal the scratch length.
func (s *ProbeScratch) Window(dst []float64, rec []int64) (float64, error) {
	if len(rec) != s.n || len(dst) != s.n {
		return 0, fmt.Errorf("dsp: scratch length %d, input %d, output %d", s.n, len(rec), len(dst))
	}
	win := s.win[:len(dst)]
	rec = rec[:len(dst)]
	var e float64
	for t := range dst {
		x := float64(float64(rec[t]) * win[t])
		dst[t] = x
		e += x * x
	}
	return e, nil
}

// Load windows the codes rec into the scratch as Window does — the
// record Energy reports and Probe reads. With base
// non-nil (a windowed record of the same length, as Window writes it)
// it also returns L1 = Σ_t |x_t − base_t|: the exact DFTs of the two
// records differ by at most L1 in every bin. len(rec) must equal the
// scratch length.
func (s *ProbeScratch) Load(rec []int64, base []float64) (float64, error) {
	if len(rec) != s.n {
		return 0, fmt.Errorf("dsp: scratch length %d, input %d", s.n, len(rec))
	}
	xw := s.xw[:s.n]
	if base == nil {
		// Measured against itself: every |x_t − x_t| is 0.
		base = xw
	} else if len(base) != len(xw) {
		return 0, fmt.Errorf("dsp: scratch length %d, base %d", s.n, len(base))
	}
	win, rec, base := s.win[:len(xw)], rec[:len(xw)], base[:len(xw)]
	var e0, e1, l0, l1 float64
	t := 0
	// Each step reads before it writes: base may share xw's offset
	// within a 4 KiB page, and a read just after a write to that
	// offset stalls.
	for ; t+1 < len(xw); t += 2 {
		b0, b1 := base[t], base[t+1]
		x0 := float64(float64(rec[t]) * win[t])
		x1 := float64(float64(rec[t+1]) * win[t+1])
		xw[t], xw[t+1] = x0, x1
		e0 += x0 * x0
		e1 += x1 * x1
		l0 += math.Abs(x0 - b0)
		l1 += math.Abs(x1 - b1)
	}
	if t < len(xw) {
		x := float64(float64(rec[t]) * win[t])
		xw[t] = x
		e0 += x * x
		l0 += math.Abs(x - base[t])
	}
	s.energy = e0 + e1
	return l0 + l1, nil
}

// Energy returns Σx² over the windowed record of the last Load.
func (s *ProbeScratch) Energy() float64 { return s.energy }

// Probe computes the probed bins of the last loaded record: strided[j]
// is the power at bin stride·j (j = 0..NFFT/(2·stride)), direct[i] at
// bins[i]. Both alias scratch memory, valid until the next Probe.
func (s *ProbeScratch) Probe() (strided, direct []float64, err error) {
	// Half fold, and s folded on to y in the same pass. The zero
	// padding past the record leaves s = d = x there.
	half, m := len(s.sum), len(s.fold)
	lo, hi := s.xw[:half], s.xw[half:]
	f := s.fold
	clear(f)
	for r := 0; r < half; r += m {
		x := lo[r : r+m : r+m]
		y, sum, dif := hi[r:r+m:r+m], s.sum[r:r+m:r+m], s.dif[r:r+m:r+m]
		for j, a := range x {
			b, fj := y[j], f[j] // reads first, as in Load
			v := a + b
			f[j] = fj + v
			sum[j], dif[j] = v, a-b
		}
	}
	buf := s.buf
	for i := range buf {
		buf[i] = complex(f[2*i], f[2*i+1])
	}
	if err := s.rp.half.Transform(buf); err != nil {
		return nil, nil, err
	}
	c2 := s.scale * s.scale
	splitPower(s.power, buf, s.rp.tw, c2)

	// Direct bins, two at a time so they share the loop.
	for i := 0; i < len(s.bins); i += 2 {
		j := min(i+1, len(s.bins)-1)
		ar, ai, br, bi := dft2(s.half(s.bins[i]), s.half(s.bins[j]), s.twRe[i], s.twIm[i], s.twRe[j], s.twIm[j])
		s.direct[i] = s.binPower(s.bins[i], ar, ai, c2)
		s.direct[j] = s.binPower(s.bins[j], br, bi, c2)
	}
	return s.power, s.direct, nil
}

// half returns the half fold bin b sums: s for even b, d for odd.
func (s *ProbeScratch) half(b int) []float64 {
	if b%2 == 0 {
		return s.sum
	}
	return s.dif
}

// dft2 returns Σ_t x_t·(ar_t + j·ai_t) and Σ_t y_t·(br_t + j·bi_t),
// each component summed as two interleaved partial sums.
func dft2(x, y, ar, ai, br, bi []float64) (aRe, aIm, bRe, bIm float64) {
	y, ar, ai, br, bi = y[:len(x)], ar[:len(x)], ai[:len(x)], br[:len(x)], bi[:len(x)]
	var r0, i0, r1, i1, s0, j0, s1, j1 float64
	t := 0
	for ; t+1 < len(x); t += 2 {
		x0, x1, y0, y1 := x[t], x[t+1], y[t], y[t+1]
		r0 += x0 * ar[t]
		i0 += x0 * ai[t]
		s0 += y0 * br[t]
		j0 += y0 * bi[t]
		r1 += x1 * ar[t+1]
		i1 += x1 * ai[t+1]
		s1 += y1 * br[t+1]
		j1 += y1 * bi[t+1]
	}
	if t < len(x) {
		r0 += x[t] * ar[t]
		i0 += x[t] * ai[t]
		s0 += y[t] * br[t]
		j0 += y[t] * bi[t]
	}
	return r0 + r1, i0 + i1, s0 + s1, j0 + j1
}

// binPower scales |X_b|² as PowerSpectrum does: c2 at DC and Nyquist,
// 2·c2 elsewhere.
func (s *ProbeScratch) binPower(b int, re, im, c2 float64) float64 {
	if b != 0 && b != s.nfft/2 {
		c2 *= 2
	}
	return (re*re + im*im) * c2
}

// ErrorBound returns a bound on |P_probe - P_ref| for every probed bin
// of the last Probe, P_ref being SpectrumScratch.PowerSpectrum's power
// on the same record (same window and length). Like
// RealSpectrumScratch.ErrorBound it is a fixed fraction of
// 2·scale²·NFFT·Σx²; the fraction is powerBound's, with the probe's
// per-bin transform error in place of the split's.
func (s *ProbeScratch) ErrorBound() float64 {
	return s.rel * 2 * s.scale * s.scale * float64(s.nfft) * s.energy
}
