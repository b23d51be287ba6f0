package dsp

import (
	"fmt"
	"math"
)

// Spectrum is a single-sided power spectrum of a real signal. Bin k
// covers frequency k·SampleRate/NFFT. Power[k] holds the total signal
// power attributed to bin k (both the +f and -f halves folded), so a
// full-scale sine of amplitude A contributes A²/2 at its bin under
// coherent sampling with a rectangular window.
type Spectrum struct {
	// Power holds per-bin power, length NFFT/2+1.
	Power []float64
	// SampleRate is the sampling frequency in Hz used to label bins.
	SampleRate float64
	// NFFT is the transform length the spectrum was computed with.
	NFFT int
	// Window records the window applied before transforming.
	Window WindowType
	// ProcessingGain corrects measured powers for the window's
	// coherent gain so on-bin tone powers are window-independent.
	ProcessingGain float64
	// ENBW is the window's equivalent noise bandwidth in bins; the
	// power of a tone summed over its leakage skirt is overcounted by
	// exactly this factor.
	ENBW float64
}

// PowerSpectrum estimates the single-sided power spectrum of x using
// window w. The input is zero-padded to a power of two. Tone powers
// are corrected for the window's coherent gain; noise powers remain
// scaled by the window's noise bandwidth (callers that need calibrated
// noise divide by NoiseBandwidth).
func PowerSpectrum(x []float64, sampleRate float64, w WindowType) (*Spectrum, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("dsp: PowerSpectrum of empty signal")
	}
	if sampleRate <= 0 {
		return nil, fmt.Errorf("dsp: PowerSpectrum sample rate %g must be positive", sampleRate)
	}
	win := Window(w, len(x))
	xw, err := ApplyWindow(x, win)
	if err != nil {
		return nil, err
	}
	n := NextPowerOfTwo(len(x))
	plan, err := SharedPlan(n)
	if err != nil {
		return nil, err
	}
	buf := make([]complex128, n)
	for i, v := range xw {
		buf[i] = complex(v, 0)
	}
	if err := plan.Transform(buf); err != nil {
		return nil, err
	}
	cg := CoherentGain(win)
	if cg == 0 {
		return nil, fmt.Errorf("dsp: window %v has zero coherent gain", w)
	}
	p := make([]float64, n/2+1)
	// The zero padding dilutes the coherent gain by len(x)/n.
	refPower(p, buf, 1/(cg*float64(len(x))))
	return &Spectrum{
		Power:          p,
		SampleRate:     sampleRate,
		NFFT:           n,
		Window:         w,
		ProcessingGain: cg,
		ENBW:           NoiseBandwidth(win),
	}, nil
}

// refPower writes the single-sided power of the transformed record buf
// into p[0..len(buf)/2]: |buf[k]|²·scale², doubled off DC and Nyquist.
// PowerSpectrum, SpectrumScratch.PowerSpectrum and
// RecordScratch.Reference all square through it, so they agree bit for
// bit.
func refPower(p []float64, buf []complex128, scale float64) {
	n := len(buf)
	p = p[:n/2+1]
	for k := range p {
		re, im := real(buf[k]), imag(buf[k])
		mag2 := (re*re + im*im) * scale * scale
		if k == 0 || k == n/2 {
			p[k] = mag2
		} else {
			p[k] = 2 * mag2
		}
	}
}

// BinFrequency returns the center frequency of bin k in Hz.
func (s *Spectrum) BinFrequency(k int) float64 {
	return float64(k) * s.SampleRate / float64(s.NFFT)
}

// Bin returns the bin index whose center frequency is closest to f.
// Frequencies above Nyquist are aliased into the first Nyquist zone,
// mirroring how a sampled system observes them.
func (s *Spectrum) Bin(f float64) int {
	f = AliasFrequency(f, s.SampleRate)
	k := int(math.Round(f * float64(s.NFFT) / s.SampleRate))
	if k < 0 {
		k = 0
	}
	if k > len(s.Power)-1 {
		k = len(s.Power) - 1
	}
	return k
}

// AliasFrequency folds frequency f (Hz) into the first Nyquist zone
// [0, fs/2] of a system sampling at fs.
func AliasFrequency(f, fs float64) float64 {
	if fs <= 0 {
		return f
	}
	f = math.Abs(f)
	f = math.Mod(f, fs)
	if f > fs/2 {
		f = fs - f
	}
	return f
}

// TonePower measures the power of a tone near frequency f by summing
// a small neighborhood of ±spread bins around the nearest bin,
// capturing leakage skirts for windowed, slightly off-bin tones.
func (s *Spectrum) TonePower(f float64, spread int) float64 {
	k := s.Bin(f)
	lo, hi := k-spread, k+spread
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.Power)-1 {
		hi = len(s.Power) - 1
	}
	var sum float64
	for i := lo; i <= hi; i++ {
		sum += s.Power[i]
	}
	return sum
}

// PeakBin returns the index of the largest-power bin in [kLo, kHi],
// excluding DC when kLo == 0 and the range has other bins.
func (s *Spectrum) PeakBin(kLo, kHi int) int {
	if kLo < 0 {
		kLo = 0
	}
	if kHi > len(s.Power)-1 {
		kHi = len(s.Power) - 1
	}
	if kLo == 0 && kHi > 0 {
		kLo = 1
	}
	best := kLo
	for k := kLo; k <= kHi; k++ {
		if s.Power[k] > s.Power[best] {
			best = k
		}
	}
	return best
}

// DB converts a power ratio to decibels; zero or negative ratios map to
// -inf, which keeps comparisons well-defined.
func DB(powerRatio float64) float64 {
	if powerRatio <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(powerRatio)
}

// FromDB converts decibels to a power ratio.
func FromDB(db float64) float64 {
	return math.Pow(10, db/10)
}

// AmplitudeDB converts an amplitude (voltage) ratio to decibels.
func AmplitudeDB(ampRatio float64) float64 {
	if ampRatio <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(ampRatio)
}

// FromAmplitudeDB converts decibels to an amplitude (voltage) ratio.
func FromAmplitudeDB(db float64) float64 {
	return math.Pow(10, db/20)
}

// DBm converts a power in watts to dBm.
func DBm(watts float64) float64 {
	if watts <= 0 {
		return math.Inf(-1)
	}
	return 10*math.Log10(watts) + 30
}

// FromDBm converts dBm to watts.
func FromDBm(dbm float64) float64 {
	return math.Pow(10, (dbm-30)/10)
}

// VoltsToDBm converts a sine amplitude in volts across impedance r to
// dBm (power = A²/(2r)).
func VoltsToDBm(amp, r float64) float64 {
	if r <= 0 {
		return math.Inf(-1)
	}
	return DBm(amp * amp / (2 * r))
}

// DBmToVolts converts dBm across impedance r to sine amplitude volts.
func DBmToVolts(dbm, r float64) float64 {
	return math.Sqrt(2 * r * FromDBm(dbm))
}
