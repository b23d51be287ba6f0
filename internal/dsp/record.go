package dsp

import (
	"fmt"
	"math"
)

// RecordScratch windows one record of integer codes and serves every
// view a spectral test takes of it from that one windowed record x,
// x_t = fl(code_t·w_t) — the values the reference transform reads:
//
//   - Load returns the bound screen's figures: Σx² (Energy) and the
//     L1 distance to another windowed record.
//   - Probe reads a few bins without the full transform: every
//     stride-th bin (k = 0, stride, 2·stride, …, NFFT/2) from x folded
//     mod M = NFFT/stride, and a fixed list of other bins by direct
//     DFT.
//   - Spectrum is the fast full spectrum: x packed two samples to a
//     complex value (even in the real part, odd in the imaginary), one
//     NFFT/2-point transform and a split pass.
//   - Reference is the reference spectrum: x through the NFFT-point
//     transform, bit for bit SpectrumScratch.PowerSpectrum on the same
//     codes as float64.
//
// Folding is exact aliasing: with y_t = Σ_r x[t + r·M],
//
//	X[stride·j] = Σ_{t<M} y_t·e^{-2πi·jt/M},
//
// so the M-point real transform of y (one M/2-point complex transform
// plus a split, as Spectrum does it) gives those bins. The direct bins
// use the half fold: with H = NFFT/2, s_t = x_t + x_{t+H} and
// d_t = x_t − x_{t+H}, X[b] is the H-term sum of s (b even) or d
// (b odd) against e^{-2πi·bt/NFFT}; y is s folded further. Powers are
// scaled as PowerSpectrum scales them.
//
// Probe and Spectrum round differently from the reference transform:
// ProbeBound and SpectrumBound bound the difference per bin, so a
// caller that thresholds them can tell when a decision is too close to
// call and re-decide it on Reference (spectest's worker detector
// does).
//
// A RecordScratch is not safe for concurrent use — create one per
// worker goroutine. Scratches share the window table, the plans and
// the split twiddles through the process-wide caches.
type RecordScratch struct {
	n     int
	nfft  int
	win   []float64
	scale float64   // 1/(cg·n), as SpectrumScratch computes it
	full  *Plan     // the NFFT-point plan: Reference
	rp    *realPlan // NFFT's half plan and split twiddles: Spectrum
	// buf holds NFFT values; every view transforms in place in a
	// prefix of it.
	buf []complex128

	xw     []float64 // the windowed record of the last Load, zero-padded to NFFT
	energy float64   // its Σx²
	spec   []float64 // Spectrum's power
	ref    []float64 // Reference's power

	// The probe, absent (fold nil) when built with stride 0.
	fp   *realPlan // the fold length's half plan and split twiddles
	bins []int
	// twRe[i][t], twIm[i][t] are e^{-2πi·bins[i]·t/NFFT} for t < H,
	// each within twiddleError of exact.
	twRe, twIm [][]float64
	probeRel   float64   // ProbeBound's factor on 2·scale²·NFFT·Σx²
	sum        []float64 // s, the half fold
	dif        []float64 // d
	fold       []float64 // y
	power      []float64 // power[j] is bin stride·j
	direct     []float64 // direct[i] is bin bins[i]
}

// NewRecordScratch builds a scratch for records of n codes windowed by
// w, with FFT length NFFT = NextPowerOfTwo(n). Its probe reads every
// stride-th bin (stride a power of two, 2 ≤ stride ≤ NFFT/2) and the
// listed bins (each in 0..NFFT/2); stride 0 builds no probe, and the
// bins then go unused.
func NewRecordScratch(n int, w WindowType, stride int, bins []int) (*RecordScratch, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dsp: RecordScratch length %d must be positive", n)
	}
	nfft := NextPowerOfTwo(n)
	if stride != 0 && (!IsPowerOfTwo(stride) || stride < 2 || nfft < 2*stride) {
		return nil, fmt.Errorf("dsp: probe stride %d needs 0 or a power of two in 2..NFFT/2 = %d", stride, nfft/2)
	}
	for _, b := range bins {
		if b < 0 || b > nfft/2 {
			return nil, fmt.Errorf("dsp: probe bin %d outside 0..%d", b, nfft/2)
		}
	}
	full, err := SharedPlan(nfft)
	if err != nil {
		return nil, err
	}
	rp, err := sharedRealPlan(nfft)
	if err != nil {
		return nil, err
	}
	win := sharedWindow(w, n)
	cg := CoherentGain(win)
	if cg == 0 {
		return nil, fmt.Errorf("dsp: window %v has zero coherent gain", w)
	}
	s := &RecordScratch{
		n:     n,
		nfft:  nfft,
		win:   win,
		scale: 1 / (cg * float64(n)),
		full:  full,
		rp:    rp,
		buf:   make([]complex128, nfft),
	}
	half, m := nfft/2, 0
	if stride != 0 {
		m = nfft / stride
	}
	size := nfft + 2*(half+1)
	if stride != 0 {
		size += 2*half + m + m/2 + 1 + len(bins) + 2*half*len(bins)
	}
	floats := make([]float64, size)
	take := func(k int) []float64 {
		f := floats[:k:k]
		floats = floats[k:]
		return f
	}
	s.xw, s.spec, s.ref = take(nfft), take(half+1), take(half+1)
	if stride == 0 {
		return s, nil
	}
	if s.fp, err = sharedRealPlan(m); err != nil {
		return nil, err
	}
	// The fold sums stride values per sample in stride/2 ≤ stride−1
	// roundings (γ_{stride-1} of ‖x‖₁ ≤ S in every bin) and its
	// transform errs by splitError(M) of √M·‖y‖₂ ≤ (1+γ_{stride-1})·S.
	// A direct bin sums H products of s or d (each within u of
	// exact, so u·‖x‖₁ in the bin) with twiddles within μ: μ·‖x‖₁ plus
	// √2·γ_{NFFT+1}(1+μ)·‖x‖₁ of rounding, all scaled by (1+u) for
	// ‖s‖₁, ‖d‖₁ ≤ (1+u)·‖x‖₁. ProbeBound takes the larger of the two.
	gf := gamma(float64(stride - 1))
	eFold := gf + splitError(m)*(1+gf)
	eDirect := unitRoundoff + (twiddleError+math.Sqrt2*gamma(float64(nfft+1))*(1+twiddleError))*(1+unitRoundoff)
	s.probeRel = powerBound(max(eFold, eDirect), ReferenceBinError(nfft), nfft)
	s.bins = append([]int(nil), bins...)
	s.sum, s.dif = take(half), take(half)
	s.fold, s.power, s.direct = take(m), take(m/2+1), take(len(bins))
	// The plan's last stage holds e^{-2πik/NFFT} for k < NFFT/2; the
	// other half of the circle is its exact negation.
	circle := full.tw[half-1:]
	s.twRe, s.twIm = make([][]float64, len(bins)), make([][]float64, len(bins))
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

// Load windows the codes rec into the scratch: the record every view
// reads until the next Load. With base non-nil (a windowed record of
// the same length, as Windowed returns it) it also returns
// L1 = Σ_t |x_t − base_t|: the exact DFTs of the two records differ by
// at most L1 in every bin. len(rec) must equal the scratch length.
func (s *RecordScratch) Load(rec []int64, base []float64) (float64, error) {
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
func (s *RecordScratch) Energy() float64 { return s.energy }

// Windowed returns the windowed record of the last Load (the scratch
// length, without the zero padding). It aliases scratch memory.
func (s *RecordScratch) Windowed() []float64 { return s.xw[:s.n] }

// Probe computes the probed bins of the loaded record: strided[j] is
// the power at bin stride·j (j = 0..NFFT/(2·stride)), direct[i] at
// bins[i]. Both alias scratch memory, valid until the next Probe.
func (s *RecordScratch) Probe() (strided, direct []float64, err error) {
	if s.fold == nil {
		return nil, nil, fmt.Errorf("dsp: RecordScratch built without a probe")
	}
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
	buf := s.buf[:m/2]
	for i := range buf {
		buf[i] = complex(f[2*i], f[2*i+1])
	}
	if err := s.fp.half.Transform(buf); err != nil {
		return nil, nil, err
	}
	c2 := s.scale * s.scale
	splitPower(s.power, buf, s.fp.tw, c2)

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
func (s *RecordScratch) half(b int) []float64 {
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
func (s *RecordScratch) binPower(b int, re, im, c2 float64) float64 {
	if b != 0 && b != s.nfft/2 {
		c2 *= 2
	}
	return (re*re + im*im) * c2
}

// Spectrum computes the fast power spectrum of the loaded record
// (NFFT/2+1 bins), within SpectrumBound of Reference in every bin. It
// aliases scratch memory, valid until the next Spectrum.
func (s *RecordScratch) Spectrum() ([]float64, error) {
	p := s.spec
	if s.nfft == 1 {
		// One point: the transform is the identity, as in the
		// reference.
		x := s.xw[0]
		p[0] = (x * x) * s.scale * s.scale
		return p, nil
	}
	buf := s.buf[:s.nfft/2]
	xw := s.xw[:2*len(buf)]
	for i := range buf {
		buf[i] = complex(xw[2*i], xw[2*i+1])
	}
	if err := s.rp.half.Transform(buf); err != nil {
		return nil, err
	}
	splitPower(p, buf, s.rp.tw, s.scale*s.scale)
	return p, nil
}

// Reference computes the reference power spectrum of the loaded record
// (NFFT/2+1 bins): bit for bit SpectrumScratch.PowerSpectrum's on the
// same codes as float64 with the same window. It aliases scratch
// memory, valid until the next Reference.
func (s *RecordScratch) Reference() ([]float64, error) {
	buf := s.buf[:len(s.xw)]
	for t, x := range s.xw {
		buf[t] = complex(x, 0)
	}
	if err := s.full.Transform(buf); err != nil {
		return nil, err
	}
	refPower(s.ref, buf, s.scale)
	return s.ref, nil
}

// SpectrumBound returns a bound on |Spectrum[k] − Reference[k]| that
// holds in every bin k for the loaded record: realBound's fraction of
// its normalized windowed energy 2·scale²·NFFT·Σx², so about 1e-13 of
// that energy at NFFT 1024, and 0 for an all-zero record (both views
// then give exact zeros).
func (s *RecordScratch) SpectrumBound() float64 { return s.bound(s.rp.rel) }

// ProbeBound returns a bound on |P_probe − Reference| for every probed
// bin of the loaded record: the same kind of fraction as
// SpectrumBound's, powerBound's with the probe's per-bin transform
// error in place of the split's.
func (s *RecordScratch) ProbeBound() float64 { return s.bound(s.probeRel) }

// bound is rel·2·scale²·NFFT·Σx² for the loaded record.
func (s *RecordScratch) bound(rel float64) float64 {
	return rel * 2 * s.scale * s.scale * float64(s.nfft) * s.energy
}
