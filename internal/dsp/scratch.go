package dsp

import "fmt"

// SpectrumScratch holds the reusable state for repeated power-spectrum
// estimation over records of one fixed length: the window table, the
// complex FFT work buffer, the output power buffer, and the shared
// transform plan. Spectral fault campaigns compute one spectrum per
// fault over thousands of faults; with a scratch the per-record hot
// path allocates nothing and never re-evaluates the window's cosine
// terms.
//
// Beyond the single-record PowerSpectrum, the scratch carries the full
// streaming-analysis state: Welch averaging (Welch), figure-of-merit
// extraction (Analyze, AnalyzeSpectrum), noise-floor estimation
// (NoiseFloor) and coherent record averaging (CoherentAverage) all
// have scratch-backed variants here, so a campaign worker reuses one
// buffer set per goroutine instead of re-allocating per segment or
// call. The streaming buffers are grown lazily on first use; after
// that every variant is allocation-free in steady state.
//
// A SpectrumScratch is not safe for concurrent use — create one per
// worker goroutine. Distinct scratches of the same length share the
// immutable plan from SharedPlan and the immutable window table from
// the shared window cache, so per-worker setup is cheap.
//
// Each scratch method is bit-identical to its package-level
// counterpart for the scratch's length and window: it performs the
// same arithmetic in the same order on cached tables.
type SpectrumScratch struct {
	n     int
	wtype WindowType
	win   []float64
	cg    float64
	enbw  float64
	plan  *Plan
	buf   []complex128
	spec  Spectrum

	// Streaming-analysis state, grown lazily so a plain
	// power-spectrum scratch stays small.
	welch   Spectrum     // Welch accumulator with its own Power buffer
	sortBuf []float64    // NoiseFloor sort buffer
	avgBuf  []float64    // CoherentAverage output record
	ana     analyzeState // Analyze/AnalyzeSpectrum working set
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
	s := &SpectrumScratch{
		n:     n,
		wtype: w,
		win:   win,
		cg:    cg,
		enbw:  NoiseBandwidth(win),
		plan:  plan,
		buf:   make([]complex128, nfft),
	}
	s.spec = Spectrum{
		Power:          make([]float64, nfft/2+1),
		NFFT:           nfft,
		Window:         w,
		ProcessingGain: cg,
		ENBW:           s.enbw,
	}
	return s, nil
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

// Welch computes the averaged power spectrum exactly as the
// package-level Welch would, reusing the scratch's FFT state per
// segment and a dedicated accumulator buffer for the average.
// opts.SegmentLength must equal the scratch length and opts.Window the
// scratch window. The returned Spectrum aliases scratch memory
// (distinct from PowerSpectrum's, so a caller may hold both) and is
// valid until the next Welch call.
func (s *SpectrumScratch) Welch(x []float64, sampleRate float64, opts WelchOptions) (*Spectrum, error) {
	n := opts.SegmentLength
	if n != s.n {
		return nil, fmt.Errorf("dsp: scratch segment length %d, got %d", s.n, n)
	}
	if opts.Window != s.wtype {
		return nil, fmt.Errorf("dsp: scratch window %v, got %v", s.wtype, opts.Window)
	}
	if err := checkWelchOptions(n, len(x), opts.Overlap); err != nil {
		return nil, err
	}
	if s.welch.Power == nil {
		s.welch.Power = make([]float64, len(s.spec.Power))
	}
	step := welchStep(n, opts.Overlap)
	segments := 0
	for start := 0; start+n <= len(x); start += step {
		sp, err := s.PowerSpectrum(x[start:start+n], sampleRate)
		if err != nil {
			return nil, err
		}
		if segments == 0 {
			copy(s.welch.Power, sp.Power)
		} else {
			for k := range s.welch.Power {
				s.welch.Power[k] += sp.Power[k]
			}
		}
		segments++
	}
	inv := 1 / float64(segments)
	for k := range s.welch.Power {
		s.welch.Power[k] *= inv
	}
	s.welch.SampleRate = sampleRate
	s.welch.NFFT = s.spec.NFFT
	s.welch.Window = s.wtype
	s.welch.ProcessingGain = s.cg
	s.welch.ENBW = s.enbw
	return &s.welch, nil
}

// CoherentAverage averages the len(x)/Len() consecutive length-Len()
// records of x sample by sample, exactly as the package-level
// CoherentAverage(x, Len()) would. The returned slice aliases scratch
// memory and is valid until the next CoherentAverage call — feed it
// straight into PowerSpectrum or Analyze for the allocation-free
// average-then-transform loop.
func (s *SpectrumScratch) CoherentAverage(x []float64) ([]float64, error) {
	k := len(x) / s.n
	if k < 1 {
		return nil, fmt.Errorf("dsp: record %d shorter than one period %d", len(x), s.n)
	}
	if s.avgBuf == nil {
		s.avgBuf = make([]float64, s.n)
	}
	out := s.avgBuf
	for i := range out {
		out[i] = 0
	}
	for rep := 0; rep < k; rep++ {
		base := rep * s.n
		for i := 0; i < s.n; i++ {
			out[i] += x[base+i]
		}
	}
	inv := 1 / float64(k)
	for i := range out {
		out[i] *= inv
	}
	return out, nil
}

// NoiseFloor estimates the median non-excluded bin power of sp exactly
// as sp.NoiseFloor(exclude) would, reusing the scratch's sort buffer.
// sp is typically the spectrum last computed by this scratch, but any
// spectrum works — the buffer is grown once to the largest spectrum
// seen.
func (s *SpectrumScratch) NoiseFloor(sp *Spectrum, exclude map[int]bool) float64 {
	if cap(s.sortBuf) < len(sp.Power) {
		s.sortBuf = make([]float64, 0, len(sp.Power))
	}
	var v float64
	v, s.sortBuf = noiseFloorMedian(sp.Power, exclude, s.sortBuf)
	return v
}

// AnalyzeSpectrum computes the spectral figures of merit exactly as
// the package-level AnalyzeSpectrum would, reusing the scratch's
// analysis buffers. The returned SpectralAnalysis (including its
// Fundamentals and Harmonics slices) aliases scratch memory and is
// valid until the next AnalyzeSpectrum or Analyze call.
func (s *SpectrumScratch) AnalyzeSpectrum(sp *Spectrum, toneFreqs []float64, opts AnalyzeOptions) (*SpectralAnalysis, error) {
	return s.ana.analyze(sp, toneFreqs, opts)
}

// Analyze computes the power spectrum of x with the scratch's window
// and extracts the spectral figures of merit, exactly as the
// package-level Analyze(x, sampleRate, toneFreqs, w, opts) would for
// the scratch's window. len(x) must equal the scratch length. The
// returned SpectralAnalysis aliases scratch memory and is valid until
// the next AnalyzeSpectrum or Analyze call.
func (s *SpectrumScratch) Analyze(x []float64, sampleRate float64, toneFreqs []float64, opts AnalyzeOptions) (*SpectralAnalysis, error) {
	if len(toneFreqs) == 0 {
		return nil, fmt.Errorf("dsp: Analyze requires at least one stimulus tone")
	}
	sp, err := s.PowerSpectrum(x, sampleRate)
	if err != nil {
		return nil, err
	}
	return s.ana.analyze(sp, toneFreqs, opts)
}
