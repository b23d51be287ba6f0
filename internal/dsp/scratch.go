package dsp

import "fmt"

// SpectrumScratch holds the reusable state for repeated power-spectrum
// estimation over records of one fixed length: the window table, the
// complex FFT work buffer, the output power buffer, and the shared
// transform plan. With a scratch the per-record path allocates nothing
// and never re-evaluates the window's cosine terms.
//
// A SpectrumScratch is not safe for concurrent use — create one per
// worker goroutine. Distinct scratches of the same length share the
// immutable plan from SharedPlan and the immutable window table from
// the shared window cache, so per-worker setup is cheap.
//
// PowerSpectrum is bit-identical to the package-level PowerSpectrum
// for the scratch's length and window: it performs the same arithmetic
// in the same order on cached tables.
type SpectrumScratch struct {
	n    int
	win  []float64
	cg   float64
	plan *Plan
	buf  []complex128
	spec Spectrum
}

// NewSpectrumScratch builds a scratch for signals of length n windowed
// by w. The FFT length is NextPowerOfTwo(n), as in PowerSpectrum.
func NewSpectrumScratch(n int, w WindowType) (*SpectrumScratch, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dsp: SpectrumScratch length %d must be positive", n)
	}
	nfft := NextPowerOfTwo(n)
	plan, err := SharedPlan(nfft)
	if err != nil {
		return nil, err
	}
	win := sharedWindow(w, n)
	cg := CoherentGain(win)
	if cg == 0 {
		return nil, fmt.Errorf("dsp: window %v has zero coherent gain", w)
	}
	return &SpectrumScratch{
		n:    n,
		win:  win,
		cg:   cg,
		plan: plan,
		buf:  make([]complex128, nfft),
		spec: Spectrum{
			Power:          make([]float64, nfft/2+1),
			NFFT:           nfft,
			Window:         w,
			ProcessingGain: cg,
			ENBW:           NoiseBandwidth(win),
		},
	}, nil
}

// Len returns the signal length the scratch was built for.
func (s *SpectrumScratch) Len() int { return s.n }

// PowerSpectrum computes the single-sided power spectrum of x exactly
// as the package-level PowerSpectrum would, reusing the scratch
// buffers. len(x) must equal the scratch length. The returned Spectrum
// aliases scratch memory and is only valid until the next call.
func (s *SpectrumScratch) PowerSpectrum(x []float64, sampleRate float64) (*Spectrum, error) {
	if len(x) != s.n {
		return nil, fmt.Errorf("dsp: scratch length %d, input %d", s.n, len(x))
	}
	if sampleRate <= 0 {
		return nil, fmt.Errorf("dsp: PowerSpectrum sample rate %g must be positive", sampleRate)
	}
	for i, v := range x {
		s.buf[i] = complex(v*s.win[i], 0)
	}
	for i := s.n; i < len(s.buf); i++ {
		s.buf[i] = 0
	}
	if err := s.plan.Transform(s.buf); err != nil {
		return nil, err
	}
	refPower(s.spec.Power, s.buf, 1/(s.cg*float64(s.n)))
	s.spec.SampleRate = sampleRate
	return &s.spec, nil
}
