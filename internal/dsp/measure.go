package dsp

import (
	"fmt"
	"math"
)

// ToneMeasurement holds the result of measuring one expected tone in a
// spectrum: where it was looked for, the power found, and the power
// expressed as amplitude assuming a sine (A = sqrt(2·P)).
type ToneMeasurement struct {
	// Frequency is the requested tone frequency in Hz (pre-aliasing).
	Frequency float64
	// Bin is the spectrum bin the tone was measured at.
	Bin int
	// Power is the measured tone power (mean-square units).
	Power float64
	// Amplitude is the equivalent sine amplitude sqrt(2·Power).
	Amplitude float64
}

// defaultToneSpread is the leakage-skirt half-width, in bins, used for
// tone measurement under a non-rectangular window when the caller does
// not choose one. Three bins cover the main lobe of the four-term
// Blackman-Harris window, the widest in the catalog.
const defaultToneSpread = 3

// MeasureTone measures the tone nearest frequency f and returns the
// measurement. Under a rectangular window (coherent sampling) the tone
// is the single nearest bin; under any other window the measurement
// sums a ±3 bin leakage skirt and divides by the window's ENBW to
// undo the skirt's overcount. Callers that need a different spread use
// AnalyzeSpectrum with an explicit ToneSpread.
func MeasureTone(s *Spectrum, f float64) ToneMeasurement {
	spread := 0
	if s.Window != Rectangular {
		spread = defaultToneSpread
	}
	return measureToneSpread(s, f, spread)
}

// measureToneSpread is MeasureTone with an explicit skirt half-width.
func measureToneSpread(s *Spectrum, f float64, spread int) ToneMeasurement {
	p := s.TonePower(f, spread)
	// Summing a leakage skirt overcounts the tone power by the
	// window's equivalent noise bandwidth.
	if spread > 0 && s.ENBW > 0 {
		p /= s.ENBW
	}
	return ToneMeasurement{
		Frequency: f,
		Bin:       s.Bin(f),
		Power:     p,
		Amplitude: math.Sqrt(2 * p),
	}
}

// SpectralAnalysis is the full set of figures of merit a mixed-signal
// tester extracts from one captured record: fundamental power, noise,
// distortion, and the derived ratios. All ratios are in dB.
type SpectralAnalysis struct {
	// Fundamentals are the measurements of the requested stimulus
	// tones, in the order requested.
	Fundamentals []ToneMeasurement
	// Harmonics are measurements of harmonics 2..H of the first
	// fundamental (aliased into the first Nyquist zone).
	Harmonics []ToneMeasurement
	// SignalPower is the summed power of all fundamentals.
	SignalPower float64
	// NoisePower is the total non-signal, non-harmonic, non-DC power.
	NoisePower float64
	// DistortionPower is the total harmonic power.
	DistortionPower float64
	// SNR is signal-to-noise ratio, dB.
	SNR float64
	// THD is total harmonic distortion relative to the signal, dB
	// (negative when distortion is below the signal).
	THD float64
	// SINAD is signal to noise-and-distortion, dB.
	SINAD float64
	// SFDR is the spurious-free dynamic range: signal power over the
	// largest non-signal bin, dB.
	SFDR float64
	// ENOB is the effective number of bits implied by SINAD.
	ENOB float64
	// NoiseFloorDB is the mean per-bin noise power relative to the
	// signal power, dB. A fault effect below this level hides in noise.
	NoiseFloorDB float64
	// WorstSpur is the measurement of the largest non-signal bin.
	WorstSpur ToneMeasurement
}

// ToneSpreadNone requests a zero-bin leakage spread regardless of the
// window: each tone is exactly its nearest bin, with no ENBW
// correction. The plain zero value of ToneSpread means "unset" (the
// window-dependent default applies), so without this sentinel a caller
// with a non-rectangular window could not express a zero-spread
// measurement.
const ToneSpreadNone = -1

// AnalyzeOptions configures Analyze.
type AnalyzeOptions struct {
	// Harmonics is how many harmonics of the first fundamental to
	// classify as distortion (2..Harmonics). Default 5 when zero.
	Harmonics int
	// ToneSpread is how many bins on each side of a tone bin belong to
	// the tone (leakage skirt). Zero means unset: 0 for Rectangular, 3
	// otherwise. Pass ToneSpreadNone to force a zero-bin spread under
	// any window.
	ToneSpread int
	// ExcludeDC controls whether bin 0 (and the spread around it) is
	// excluded from noise. Offset errors otherwise masquerade as noise.
	// Default true (set SkipDCExclusion to include DC in noise).
	SkipDCExclusion bool
}

// resolveSpread maps the ToneSpread option onto the effective skirt
// half-width for a spectrum's window.
func (o AnalyzeOptions) resolveSpread(w WindowType) int {
	switch {
	case o.ToneSpread < 0:
		return 0
	case o.ToneSpread == 0 && w != Rectangular:
		return defaultToneSpread
	default:
		return o.ToneSpread
	}
}

// Analyze computes the standard spectral figures of merit for a real
// record x sampled at sampleRate, given the stimulus tone frequencies.
// Intermodulation products are counted as noise unless they coincide
// with harmonic bins; callers interested in specific intermods can
// measure them directly with MeasureTone.
func Analyze(x []float64, sampleRate float64, toneFreqs []float64, w WindowType, opts AnalyzeOptions) (*SpectralAnalysis, error) {
	if len(toneFreqs) == 0 {
		return nil, fmt.Errorf("dsp: Analyze requires at least one stimulus tone")
	}
	s, err := PowerSpectrum(x, sampleRate, w)
	if err != nil {
		return nil, err
	}
	return AnalyzeSpectrum(s, toneFreqs, opts)
}

// AnalyzeSpectrum is Analyze for a precomputed spectrum.
func AnalyzeSpectrum(s *Spectrum, toneFreqs []float64, opts AnalyzeOptions) (*SpectralAnalysis, error) {
	if len(toneFreqs) == 0 {
		return nil, fmt.Errorf("dsp: AnalyzeSpectrum requires at least one stimulus tone")
	}
	nHarm := opts.Harmonics
	if nHarm <= 0 {
		nHarm = 5
	}
	spread := opts.resolveSpread(s.Window)

	res := &SpectralAnalysis{}
	excl := make([]bool, len(s.Power))
	fund := make([]bool, len(s.Power))
	markBins := func(k int) {
		for i := k - spread; i <= k+spread; i++ {
			if i >= 0 && i < len(s.Power) {
				excl[i] = true
			}
		}
	}
	if !opts.SkipDCExclusion {
		markBins(0)
	}

	for _, f := range toneFreqs {
		m := measureToneSpread(s, f, spread)
		res.Fundamentals = append(res.Fundamentals, m)
		res.SignalPower += m.Power
		markBins(m.Bin)
	}

	// Harmonics of the first fundamental, aliased into [0, fs/2].
	f1 := toneFreqs[0]
	for h := 2; h <= nHarm; h++ {
		fh := AliasFrequency(float64(h)*f1, s.SampleRate)
		k := s.Bin(fh)
		if k < len(excl) && excl[k] {
			continue
		}
		m := measureToneSpread(s, fh, spread)
		res.Harmonics = append(res.Harmonics, m)
		res.DistortionPower += m.Power
		markBins(k)
	}

	// Everything else is noise; also find the worst spur among
	// non-fundamental bins (harmonics count as spurs for SFDR).
	worstSpurPower := 0.0
	worstSpurBin := -1
	for _, m := range res.Fundamentals {
		for i := m.Bin - spread; i <= m.Bin+spread; i++ {
			if i >= 0 && i < len(fund) {
				fund[i] = true
			}
		}
	}
	for k, p := range s.Power {
		if !excl[k] {
			res.NoisePower += p
		}
		if !fund[k] && k != 0 && p > worstSpurPower {
			worstSpurPower = p
			worstSpurBin = k
		}
	}
	if worstSpurBin >= 0 {
		res.WorstSpur = ToneMeasurement{
			Frequency: s.BinFrequency(worstSpurBin),
			Bin:       worstSpurBin,
			Power:     worstSpurPower,
			Amplitude: math.Sqrt(2 * worstSpurPower),
		}
	}

	res.SNR = DB(safeRatio(res.SignalPower, res.NoisePower))
	res.THD = DB(safeRatio(res.DistortionPower, res.SignalPower))
	res.SINAD = DB(safeRatio(res.SignalPower, res.NoisePower+res.DistortionPower))
	res.SFDR = DB(safeRatio(res.SignalPower, worstSpurPower))
	res.ENOB = (res.SINAD - 1.76) / 6.02
	nBins := 0
	for _, e := range excl {
		if !e {
			nBins++
		}
	}
	if nBins > 0 && res.NoisePower > 0 {
		res.NoiseFloorDB = DB(res.NoisePower / float64(nBins) / res.SignalPower)
	} else {
		res.NoiseFloorDB = math.Inf(-1)
	}
	return res, nil
}

func safeRatio(num, den float64) float64 {
	if den <= 0 {
		if num <= 0 {
			return 1
		}
		return math.Inf(1)
	}
	return num / den
}

// RMS returns the root-mean-square value of x.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += v * v
	}
	return math.Sqrt(sum / float64(len(x)))
}

// Mean returns the arithmetic mean of x (the DC level of a record).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}

// CoherentBin returns a stimulus frequency that places exactly `cycles`
// periods in a record of n samples at sampleRate — the coherent-sampling
// condition that makes tones land on FFT bins. Choosing cycles odd (and
// ideally mutually prime with n) exercises all quantizer codes.
func CoherentBin(sampleRate float64, n, cycles int) float64 {
	return float64(cycles) * sampleRate / float64(n)
}

// PhaseAt returns the phase in radians of the spectrum of real record x
// at bin k, computed via Goertzel. Useful for group-delay and offset
// tests that need phase as well as magnitude.
func PhaseAt(x []float64, k int) float64 {
	c := goertzel(x, k)
	return math.Atan2(imag(c), real(c))
}
