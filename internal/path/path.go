// Package path composes the paper's experimental signal path
// (Figure 6): Amp → Mixer (with LO) → LPF → ADC → digital filter. It
// provides end-to-end time-domain simulation (the stand-in for the
// authors' silicon/SPICE testbed), forward attribute propagation for
// the translation engine, and backward stimulus mapping (what to apply
// at the primary input so an embedded block sees a desired signal).
package path

import (
	"fmt"
	"math"
	"math/rand"

	"mstx/internal/adc"
	"mstx/internal/analog"
	"mstx/internal/digital"
	"mstx/internal/msignal"
	"mstx/internal/tolerance"
)

// Stage identifies a node in the path where a signal can be described.
type Stage int

// Path nodes, in signal-flow order.
const (
	// StageInput is the primary input (amplifier input).
	StageInput Stage = iota
	// StageMixerIn is the mixer RF input (amplifier output).
	StageMixerIn
	// StageLPFIn is the filter input (mixer IF output).
	StageLPFIn
	// StageADCIn is the converter input (filter output).
	StageADCIn
	// StageFilterOut is the digital-filter output (primary output).
	StageFilterOut
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageInput:
		return "primary-input"
	case StageMixerIn:
		return "mixer-in"
	case StageLPFIn:
		return "lpf-in"
	case StageADCIn:
		return "adc-in"
	case StageFilterOut:
		return "filter-out"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Spec bundles the specifications of every module in the path plus
// the two simulation rates.
type Spec struct {
	Amp   analog.AmplifierSpec
	LO    analog.OscillatorSpec
	Mixer analog.MixerSpec
	LPF   analog.LowPassSpec
	ADC   adc.Spec
	// FilterCoeffs is the digital channel-selection filter (float
	// taps, unity-DC-gain convention).
	FilterCoeffs []float64
	// SimRate is the analog simulation rate, Hz. It must resolve the
	// RF and LO frequencies (SimRate > 2·f_RF).
	SimRate float64
	// ADCRate is the converter sampling rate, Hz; SimRate must be an
	// integer multiple.
	ADCRate float64
	// UseSigmaDelta replaces the Nyquist converter's sample-and-hold
	// with a first-order sigma-delta modulator clocked at SimRate and
	// sinc¹-decimated by SimRate/ADCRate — the alternative interface
	// module of the paper's introduction. The decimated waveform is
	// then quantized to ADC.Bits as usual.
	UseSigmaDelta bool
	// SigmaDeltaLeak is the modulator's integrator leak (a defect
	// knob; 0 = ideal loop).
	SigmaDeltaLeak float64
}

// Validate checks rate consistency.
func (s Spec) Validate() error {
	if s.SimRate <= 0 || s.ADCRate <= 0 {
		return fmt.Errorf("path: rates must be positive")
	}
	ratio := s.SimRate / s.ADCRate
	if math.Abs(ratio-math.Round(ratio)) > 1e-9 || ratio < 1 {
		return fmt.Errorf("path: SimRate/ADCRate = %g must be a positive integer", ratio)
	}
	if len(s.FilterCoeffs) == 0 {
		return fmt.Errorf("path: no digital filter coefficients")
	}
	return nil
}

// Build returns the nominal device path.
func (s Spec) Build() (*Path, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	conv, err := s.ADC.Build()
	if err != nil {
		return nil, err
	}
	lo := s.LO.Build()
	return &Path{
		Spec:  s,
		Amp:   s.Amp.Build(),
		LO:    lo,
		Mixer: s.Mixer.Build(lo),
		LPF:   s.LPF.Build(),
		ADC:   conv,
	}, nil
}

// Sample returns a process-varied device path (one manufactured
// instance).
func (s Spec) Sample(rng *rand.Rand) (*Path, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	conv, err := s.ADC.Sample(rng)
	if err != nil {
		return nil, err
	}
	lo := s.LO.Sample(rng)
	return &Path{
		Spec:  s,
		Amp:   s.Amp.Sample(rng),
		LO:    lo,
		Mixer: s.Mixer.Sample(lo, rng),
		LPF:   s.LPF.Sample(rng),
		ADC:   conv,
	}, nil
}

// Path is one device instance of the full signal path.
type Path struct {
	// Spec is the specification the instance was built from.
	Spec  Spec
	Amp   *analog.Amplifier
	LO    *analog.Oscillator
	Mixer *analog.Mixer
	LPF   *analog.LowPass
	ADC   *adc.ADC
}

// Decim returns the SimRate/ADCRate decimation factor.
func (p *Path) Decim() int {
	return int(math.Round(p.Spec.SimRate / p.Spec.ADCRate))
}

// Capture is the result of one end-to-end test capture.
type Capture struct {
	// ADCIn is the analog waveform at the converter input (SimRate,
	// decimation-aligned samples only would be ADCIn[::decim]).
	ADCIn []float64
	// Codes are the converter output codes at ADCRate.
	Codes []int64
	// FilterOut is the digital filter output record at ADCRate
	// (float, code·LSB units).
	FilterOut []float64
}

// Run renders the stimulus attribute model at the primary input,
// pushes it through the analog chain at SimRate, converts, and applies
// the behavioural digital filter. n is the number of ADC-rate output
// samples. rng supplies every noise source; nil gives the
// deterministic response. The returned slices are freshly allocated.
func (p *Path) Run(stim msignal.Signal, n int, rng *rand.Rand) (*Capture, error) {
	c, err := p.RunScratch(stim, n, rng, new(Scratch))
	if err != nil {
		return nil, err
	}
	out := *c
	return &out, nil
}

// Scratch is the reusable state of repeated captures: the carrier
// cosine tables (stimulus tones, the LO of a capture without phase-noise
// draws, the SC clock spur), each keyed on the exact inputs that
// produced it, and the stage buffers. A capture sweep on one device
// keeps one Scratch so each cosine is evaluated once, not once per
// capture. The device-independent carriers (stimulus tones, the SC
// clock) come from the process-wide msignal set on a miss, so every
// scratch in the process fills each of them once; the LO carrier
// stays private, since its frequency is drawn per device. A Scratch is
// not safe for concurrent use — keep one per goroutine; the Path
// itself stays shareable. The zero value is ready to use.
type Scratch struct {
	tones   msignal.Carriers
	lo, clk msignal.CosTable
	sim     []float64 // SimRate record, processed stage by stage in place
	held    []float64 // ADC-rate input, then its codes in volts
	codes   []int64
	out     []float64
	cap     Capture
}

func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// RunScratch is Run reusing sc's tables and buffers. Every sample is
// bit-identical to Run's. The returned Capture and its slices alias sc
// and stay valid only until the next RunScratch with sc.
func (p *Path) RunScratch(stim msignal.Signal, n int, rng *rand.Rand, sc *Scratch) (*Capture, error) {
	if n <= 0 {
		return nil, fmt.Errorf("path: capture length %d must be positive", n)
	}
	decim := p.Decim()
	fs := p.Spec.SimRate
	sc.sim = grow(sc.sim, n*decim)
	f := sc.sim
	stim.RenderInto(f, fs, rng, &sc.tones)
	p.Amp.ProcessInto(f, f, fs, rng)
	p.Mixer.ProcessInto(f, f, fs, rng, &sc.lo)
	p.LPF.ProcessInto(f, f, fs, rng, &sc.clk)
	sc.held = grow(sc.held, n)
	held := sc.held
	if p.Spec.UseSigmaDelta {
		// Oversampled single-bit modulation at SimRate with sinc¹
		// decimation down to ADCRate.
		sd, err := adc.NewSigmaDelta(p.Spec.ADC.FullScaleV, decim)
		if err != nil {
			return nil, err
		}
		sd.IntegratorLeak = p.Spec.SigmaDeltaLeak
		copy(held, sd.ConvertOversampled(f, rng))
	} else {
		// Decimate to the ADC rate (the converter's sample-and-hold).
		for i := 0; i < n; i++ {
			held[i] = f[i*decim]
		}
	}
	sc.codes = p.ADC.ConvertInto(grow(sc.codes, n), held, rng)
	lsb := p.ADC.LSB()
	volts := held
	for i, c := range sc.codes {
		volts[i] = float64(c) * lsb
	}
	sc.out = digital.FilterFloatInto(grow(sc.out, n), p.Spec.FilterCoeffs, volts)
	sc.cap = Capture{ADCIn: f, Codes: sc.codes, FilterOut: sc.out}
	return &sc.cap, nil
}

// Propagate walks the stimulus attribute model from the primary input
// to the requested stage, accumulating gains, noise, spurs and
// accuracies block by block — the paper's signal-propagation core.
func (p *Path) Propagate(stim msignal.Signal, to Stage) msignal.Signal {
	s := stim
	if to == StageInput {
		return s
	}
	s = p.Amp.Propagate(s)
	if to == StageMixerIn {
		return s
	}
	s = p.Mixer.Propagate(s)
	if to == StageLPFIn {
		return s
	}
	s = p.LPF.Propagate(s)
	if to == StageADCIn {
		return s
	}
	s = p.ADC.Propagate(s)
	// The digital filter is modelled as an ideal analog filter with
	// no added noise or nonlinearity (paper §3): scale tones and spurs
	// by its response at their frequencies.
	for i := range s.Tones {
		s.Tones[i].Amp *= digital.FrequencyResponseMag(p.Spec.FilterCoeffs, s.Tones[i].Freq/p.Spec.ADCRate)
	}
	for i := range s.Spurs {
		fAliased := aliasTo(s.Spurs[i].Freq, p.Spec.ADCRate)
		s.Spurs[i].Amp *= digital.FrequencyResponseMag(p.Spec.FilterCoeffs, fAliased/p.Spec.ADCRate)
		s.Spurs[i].Freq = fAliased
	}
	return s
}

// aliasTo folds f into [0, fs/2].
func aliasTo(f, fs float64) float64 {
	f = math.Abs(f)
	f = math.Mod(f, fs)
	if f > fs/2 {
		f = fs - f
	}
	return f
}

// StimulusFor computes the primary-input stimulus whose nominal
// propagation produces `want` at the given stage: frequencies are
// shifted back up through the mixer and amplitudes divided by the
// nominal gains of the preceding blocks. Only StageMixerIn, StageLPFIn
// and StageADCIn are meaningful targets.
func (p *Path) StimulusFor(want msignal.Signal, at Stage) (msignal.Signal, error) {
	s := want.Clone()
	switch at {
	case StageInput:
		return s, nil
	case StageMixerIn:
		return p.divideByAmp(s), nil
	case StageLPFIn:
		s = p.undoMixer(s)
		return p.divideByAmp(s), nil
	case StageADCIn:
		// Assume the wanted tones are in the LPF pass-band, where the
		// nominal filter gain applies.
		gl := math.Pow(10, p.Spec.LPF.GainDB.Nominal/20)
		s = scaleTones(s, 1/gl)
		s = p.undoMixer(s)
		return p.divideByAmp(s), nil
	default:
		return msignal.Signal{}, fmt.Errorf("path: cannot back-propagate to %v", at)
	}
}

func (p *Path) divideByAmp(s msignal.Signal) msignal.Signal {
	ga := math.Pow(10, p.Spec.Amp.GainDB.Nominal/20)
	return scaleTones(s, 1/ga)
}

func (p *Path) undoMixer(s msignal.Signal) msignal.Signal {
	gm := math.Pow(10, p.Spec.Mixer.ConvGainDB.Nominal/20)
	s = scaleTones(s, 1/gm)
	// IF tones map back to the high-side RF image f_LO + f_IF.
	out := s.Clone()
	for i := range out.Tones {
		out.Tones[i].Freq += p.Spec.LO.FreqHz.Nominal
	}
	return out
}

func scaleTones(s msignal.Signal, g float64) msignal.Signal {
	out := s.Clone()
	for i := range out.Tones {
		out.Tones[i].Amp *= g
	}
	return out
}

// NominalPathGainDB returns the design path gain from primary input
// to the ADC input in dB (amp + mixer + filter pass-band).
func (p *Path) NominalPathGainDB() float64 {
	return p.Spec.Amp.GainDB.Nominal + p.Spec.Mixer.ConvGainDB.Nominal + p.Spec.LPF.GainDB.Nominal
}

// ActualPathGainDB returns this instance's true path gain in dB — the
// oracle the measurement procedures are judged against.
func (p *Path) ActualPathGainDB() float64 {
	return p.Amp.GainDB + p.Mixer.ConvGainDB + p.LPF.GainDB
}

// PathGainRelTol returns the 1σ relative tolerance of the composite
// linear path gain (RSS of the blocks' linear-gain tolerances).
func (p *Path) PathGainRelTol() float64 {
	toRel := func(v tolerance.Value) float64 { return v.Sigma * math.Ln10 / 20 }
	return tolerance.RSS(
		toRel(p.Spec.Amp.GainDB),
		toRel(p.Spec.Mixer.ConvGainDB),
		toRel(p.Spec.LPF.GainDB),
	)
}

// DefaultSpec returns the reproduction's standard communication-path
// specification: a 10.7 MHz-ish RF input, 9.6 MHz LO, 1.5 MHz-corner
// SC low-pass, 10-bit ADC at 8 MHz, and a 13-tap low-pass FIR — sized
// so the whole experiment runs comfortably on a laptop while keeping
// the paper's structure (IF around 1.1 MHz inside the filter and ADC
// band).
func DefaultSpec(filterCoeffs []float64) Spec {
	return Spec{
		Amp: analog.AmplifierSpec{
			Name:    "amp",
			GainDB:  tolerance.Abs(15, 0.4),
			IIP3DBm: tolerance.Abs(10, 0.5),
			P1dBDBm: tolerance.Abs(-10, 0.5),
			NFDB:    3,
			OffsetV: tolerance.Abs(0.0001, 0.00008),
		},
		LO: analog.OscillatorSpec{
			Name:                   "lo",
			FreqHz:                 tolerance.Rel(9.6e6, 2e-6),
			PhaseNoiseRadPerSample: 2e-6,
		},
		Mixer: analog.MixerSpec{
			Name:          "mixer",
			ConvGainDB:    tolerance.Abs(6, 0.5),
			IIP3DBm:       tolerance.Abs(8, 1.2),
			P1dBDBm:       tolerance.Abs(-2, 1.2),
			NFDB:          8,
			LOIsolationDB: tolerance.Abs(45, 2),
			LODriveAmpV:   0.3,
		},
		LPF: analog.LowPassSpec{
			Name:     "lpf",
			CutoffHz: tolerance.Rel(1.5e6, 0.04),
			// 6 dB of pass-band gain: the SC biquad scales the IF up
			// to use the converter's range without stressing the
			// mixer's compression point.
			GainDB: tolerance.Abs(6, 0.3),
			// The SC clock sits off the ADC-rate harmonics so its
			// feed-through aliases to 0.5 MHz rather than DC.
			ClockHz:        15.5e6,
			ClockSpurV:     0.0004,
			OutputNoiseRMS: 1.2e-4,
			OffsetV:        tolerance.Abs(0.0008, 0.0006),
		},
		ADC: adc.Spec{
			Name:        "adc",
			Bits:        12,
			FullScaleV:  1.0,
			OffsetLSB:   tolerance.Abs(0.5, 0.4),
			GainErrRel:  tolerance.Abs(0, 0.004),
			INLPeakLSB:  tolerance.Abs(0.3, 0.15),
			DNLSigmaLSB: 0.05,
			NoiseRMSLSB: 0.4,
		},
		FilterCoeffs: filterCoeffs,
		SimRate:      64e6,
		ADCRate:      8e6,
	}
}
