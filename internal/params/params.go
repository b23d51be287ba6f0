// Package params implements the module-parameter measurements of the
// paper's Table 1 as system-level test procedures: stimuli are applied
// at the primary input of a path.Path, the response is observed at the
// digital filter output, and the parameter is extracted with DSP —
// optionally through the paper's two translation methods (nominal-gain
// propagation vs. the adaptive, path-gain-first strategy) so their
// accuracies can be compared (Figure 4, Table 2).
package params

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mstx/internal/analog"
	"mstx/internal/digital"
	"mstx/internal/dsp"
	"mstx/internal/msignal"
	"mstx/internal/path"
)

// ErrUntranslatable marks a measurement that cannot be performed
// through the functional path on this device — the signal of interest
// is buried in noise or masked by another effect. The caller should
// fall back to a DFT test point rather than fail the device.
var ErrUntranslatable = errors.New("untranslatable through the functional path")

// Kind identifies a measured parameter (the Table 1 taxonomy).
type Kind string

// Parameter kinds.
const (
	PathGain     Kind = "path-gain"
	MixerIIP3    Kind = "mixer-iip3"
	MixerP1dB    Kind = "mixer-p1db"
	LPFCutoff    Kind = "lpf-cutoff"
	DCOffset     Kind = "dc-offset"
	PathSNR      Kind = "path-snr"
	LOFreqError  Kind = "lo-freq-error"
	LOIsolation  Kind = "lo-isolation"
	StopbandGain Kind = "stopband-gain"
	NoiseFigure  Kind = "noise-figure"
	DynamicRange Kind = "dynamic-range"
	ADCOffset    Kind = "adc-offset"
	ADCINL       Kind = "adc-inl"
	ADCDNL       Kind = "adc-dnl"
	GroupDelay   Kind = "group-delay"
	AmpHD3       Kind = "amp-hd3"
	PhaseNoise   Kind = "phase-noise"
)

// Method selects how a propagation-translated parameter is computed.
type Method int

const (
	// FullAccess measures at the target block's own ports (the DFT
	// baseline the paper wants to avoid).
	FullAccess Method = iota
	// NominalGains refers primary-output measurements back through the
	// nominal gains of the other blocks (Figure 4a applied at PO).
	NominalGains
	// Adaptive first measures the composite path gain accurately and
	// uses it in place of the unknown block gains (Figure 4b).
	Adaptive
)

// String names the method.
func (m Method) String() string {
	switch m {
	case FullAccess:
		return "full-access"
	case NominalGains:
		return "nominal-gains"
	case Adaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Result is one parameter measurement with its oracle.
type Result struct {
	// Kind identifies the parameter.
	Kind Kind
	// Target is the block the parameter belongs to.
	Target string
	// Method is the translation method used.
	Method Method
	// Measured is the value the system-level test computed.
	Measured float64
	// True is the instance's actual value (the oracle).
	True float64
	// Unit is the value's unit for reports.
	Unit string
}

// Delta returns Measured − True.
func (r Result) Delta() float64 { return r.Measured - r.True }

// String formats the result.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s [%s]: measured %.4g %s, true %.4g %s (err %+.4g)",
		r.Target, r.Kind, r.Method, r.Measured, r.Unit, r.True, r.Unit, r.Delta())
}

// Config sets the capture geometry shared by the procedures.
type Config struct {
	// N is the analysis record length in ADC samples (power of two).
	N int
	// Settle is the number of leading samples discarded for filter
	// settling.
	Settle int
}

// DefaultConfig returns the standard 4096-point capture with 512
// settle samples.
func DefaultConfig() Config { return Config{N: 4096, Settle: 512} }

func (c Config) validate() error {
	if c.N <= 0 || !dsp.IsPowerOfTwo(c.N) {
		return fmt.Errorf("params: N = %d must be a positive power of two", c.N)
	}
	if c.Settle < 0 {
		return fmt.Errorf("params: negative settle")
	}
	return nil
}

// Sweep is the capture state reused across captures: the path scratch
// (carrier tables and stage buffers) and the spectrum scratch. The
// package-level Measure* functions each run on a new Sweep; the Sweep
// methods run on the caller's, so a device's whole set of procedures
// fills its buffers once, and a worker that measures many devices
// keeps one Sweep for all of them. A Sweep is not safe for concurrent
// use — keep one per goroutine; a Path stays safe for concurrent
// measurement. The zero value is ready to use.
type Sweep struct {
	path path.Scratch
	spec *dsp.SpectrumScratch
}

// capture runs the path and returns the spectrum of the settled
// filter-output window. The spectrum and the record alias the sweep
// and are valid only until its next capture.
func (sw *Sweep) capture(p *path.Path, stim msignal.Signal, cfg Config, rng *rand.Rand) (*dsp.Spectrum, []float64, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	cap, err := p.RunScratch(stim, cfg.N+cfg.Settle, rng, &sw.path)
	if err != nil {
		return nil, nil, err
	}
	rec := cap.FilterOut[cfg.Settle:]
	if sw.spec == nil || sw.spec.Len() != len(rec) {
		if sw.spec, err = dsp.NewSpectrumScratch(len(rec), dsp.Rectangular); err != nil {
			return nil, nil, err
		}
	}
	s, err := sw.spec.PowerSpectrum(rec, p.Spec.ADCRate)
	if err != nil {
		return nil, nil, err
	}
	return s, rec, nil
}

// digitalGain returns the exactly-known digital filter amplitude
// response at frequency f.
func digitalGain(p *path.Path, f float64) float64 {
	return digital.FrequencyResponseMag(p.Spec.FilterCoeffs, f/p.Spec.ADCRate)
}

// ifBin returns a coherent IF frequency near wantHz for the capture
// geometry.
func ifBin(p *path.Path, cfg Config, wantHz float64) float64 {
	bin := int(math.Round(wantHz * float64(cfg.N) / p.Spec.ADCRate))
	if bin < 1 {
		bin = 1
	}
	return dsp.CoherentBin(p.Spec.ADCRate, cfg.N, bin)
}

// rfFor converts an IF frequency to the high-side RF stimulus
// frequency using the nominal LO (all the tester knows).
func rfFor(p *path.Path, fIF float64) float64 {
	return p.Spec.LO.FreqHz.Nominal + fIF
}

// MeasurePathGain measures the composite PI→ADC path gain in dB using
// a deep-pass-band tone (translation by composition). The digital
// filter response is divided out exactly.
func MeasurePathGain(p *path.Path, cfg Config, rng *rand.Rand) (Result, error) {
	return new(Sweep).pathGain(p, cfg, rng)
}

// pathGain is MeasurePathGain on the caller's sweep.
func (sw *Sweep) pathGain(p *path.Path, cfg Config, rng *rand.Rand) (Result, error) {
	fIF := ifBin(p, cfg, 200e3)
	amp := 0.004
	stim := msignal.NewTone(rfFor(p, fIF), amp)
	s, _, err := sw.capture(p, stim, cfg, rng)
	if err != nil {
		return Result{}, err
	}
	m := dsp.MeasureTone(s, fIF)
	gd := digitalGain(p, fIF)
	measured := dsp.AmplitudeDB(m.Amplitude / gd / amp)
	// Oracle: actual block gains plus the actual LPF response at fIF
	// relative to its pass-band gain.
	rolloff := dsp.AmplitudeDB(p.LPF.ResponseMag(fIF)) - p.LPF.GainDB
	truth := p.ActualPathGainDB() + rolloff
	return Result{
		Kind: PathGain, Target: "path", Method: Adaptive,
		Measured: measured, True: truth, Unit: "dB",
	}, nil
}

// MeasureDCOffset measures the composed baseband DC offset (LPF offset
// plus ADC offset; amplifier offset is rejected by the mixer) at the
// primary output with a zero input.
func MeasureDCOffset(p *path.Path, cfg Config, rng *rand.Rand) (Result, error) {
	_, rec, err := new(Sweep).capture(p, msignal.Signal{}, cfg, rng)
	if err != nil {
		return Result{}, err
	}
	dcGain := digital.FrequencyResponseMag(p.Spec.FilterCoeffs, 0)
	measured := dsp.Mean(rec) / dcGain
	// The oracle includes the ADC's INL bow, which peaks at mid-scale
	// and acts as an additional offset for a near-zero input.
	truth := p.LPF.OffsetV + (p.ADC.OffsetLSB+p.ADC.INLPeakLSB)*p.ADC.LSB()
	return Result{
		Kind: DCOffset, Target: "lpf+adc", Method: Adaptive,
		Measured: measured, True: truth, Unit: "V",
	}, nil
}

// IIP3Stimulus describes the two-tone geometry used by the IIP3 test.
type IIP3Stimulus struct {
	// F1IF and F2IF are the wanted IF tone frequencies, Hz.
	F1IF, F2IF float64
	// MixerInAmp is the per-tone amplitude wanted at the mixer input,
	// volts.
	MixerInAmp float64
}

// DefaultIIP3Stimulus returns the standard geometry: IF tones near
// 0.9 and 1.0 MHz with 50 mV per tone at the mixer input.
func DefaultIIP3Stimulus() IIP3Stimulus {
	return IIP3Stimulus{F1IF: 0.9e6, F2IF: 1.0e6, MixerInAmp: 0.05}
}

// MeasureMixerIIP3 measures the mixer's input IP3 in dBm through the
// chosen translation method. The PO powers X (fundamental) and Y (IM3
// at 2f1−f2) are corrected for the exactly-known digital filter and
// combined per Figure 4:
//
//	nominal:  IIP3 = (3X−Y)/2 − (G_M,nom + G_B,nom)
//	adaptive: IIP3 = (3X−Y)/2 − G_path,measured + G_A,nom
//
// FullAccess bypasses the path: it drives the mixer input directly and
// observes the mixer output, the DFT-style baseline.
func MeasureMixerIIP3(p *path.Path, method Method, st IIP3Stimulus, cfg Config, rng *rand.Rand) (Result, error) {
	return new(Sweep).MixerIIP3(p, method, st, cfg, rng)
}

// MixerIIP3 is MeasureMixerIIP3 on the caller's sweep.
func (sw *Sweep) MixerIIP3(p *path.Path, method Method, st IIP3Stimulus, cfg Config, rng *rand.Rand) (Result, error) {
	truth := p.Mixer.IIP3DBm
	if method == FullAccess {
		measured, err := fullAccessMixerIIP3(p, st, cfg, rng)
		if err != nil {
			return Result{}, err
		}
		return Result{Kind: MixerIIP3, Target: p.Mixer.Name(), Method: method,
			Measured: measured, True: truth, Unit: "dBm"}, nil
	}
	f1 := ifBin(p, cfg, st.F1IF)
	f2 := ifBin(p, cfg, st.F2IF)
	fim := 2*f1 - f2
	if fim <= 0 {
		return Result{}, fmt.Errorf("params: IM3 frequency %g not observable", fim)
	}
	// Back-propagate the wanted mixer-input amplitude to the PI.
	want := msignal.NewTwoTone(rfFor(p, f1), rfFor(p, f2), st.MixerInAmp)
	stim, err := p.StimulusFor(want, path.StageMixerIn)
	if err != nil {
		return Result{}, err
	}
	// Retag the stimulus tones at RF (StimulusFor keeps frequencies).
	s, _, err := sw.capture(p, stim, cfg, rng)
	if err != nil {
		return Result{}, err
	}
	x := dsp.MeasureTone(s, f1)
	y := dsp.MeasureTone(s, fim)
	if y.Amplitude <= 0 {
		return Result{}, fmt.Errorf("params: IM3 product below the noise floor: %w", ErrUntranslatable)
	}
	// Correct each product for the digital filter (known exactly) and
	// for the filter block's *nominal* frequency-dependent roll-off
	// (the tester's model of the LPF); the pass-band gain itself is
	// handled per method below.
	rolloff := func(f float64) float64 {
		r := math.Pow(f/p.Spec.LPF.CutoffHz.Nominal, 4)
		return 1 / math.Sqrt(1+r)
	}
	xDBm := analog.AmpToDBm(x.Amplitude / digitalGain(p, f1) / rolloff(f1))
	yDBm := analog.AmpToDBm(y.Amplitude / digitalGain(p, fim) / rolloff(fim))
	base := (3*xDBm - yDBm) / 2
	var measured float64
	switch method {
	case NominalGains:
		gB := p.Spec.LPF.GainDB.Nominal
		measured = base - (p.Spec.Mixer.ConvGainDB.Nominal + gB)
	case Adaptive:
		gPath, err := sw.pathGain(p, cfg, rng)
		if err != nil {
			return Result{}, err
		}
		// The pass-band B-gain cancels between the measured path gain
		// and the roll-off-corrected products; only the amp's nominal
		// gain is trusted (Figure 4b).
		measured = base - gPath.Measured + p.Spec.Amp.GainDB.Nominal
	default:
		return Result{}, fmt.Errorf("params: unknown method %v", method)
	}
	return Result{Kind: MixerIIP3, Target: p.Mixer.Name(), Method: method,
		Measured: measured, True: truth, Unit: "dBm"}, nil
}

// fullAccessMixerIIP3 drives the mixer directly (test-point access)
// and measures at the mixer output.
func fullAccessMixerIIP3(p *path.Path, st IIP3Stimulus, cfg Config, rng *rand.Rand) (float64, error) {
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	n := (cfg.N + cfg.Settle) * p.Decim()
	fs := p.Spec.SimRate
	f1 := rfFor(p, ifBin(p, cfg, st.F1IF))
	f2 := rfFor(p, ifBin(p, cfg, st.F2IF))
	stim := msignal.NewTwoTone(f1, f2, st.MixerInAmp)
	x := stim.Render(n, fs, rng)
	out := p.Mixer.Process(x, fs, rng)
	// Observe the IF products directly at the mixer output.
	s, err := dsp.PowerSpectrum(out[cfg.Settle*p.Decim():], fs, dsp.Hann)
	if err != nil {
		return 0, err
	}
	fIF1 := f1 - p.Spec.LO.FreqHz.Nominal
	fIF2 := f2 - p.Spec.LO.FreqHz.Nominal
	fIM := 2*fIF1 - fIF2
	xm := dsp.MeasureTone(s, fIF1)
	ym := dsp.MeasureTone(s, fIM)
	if ym.Amplitude <= 0 {
		return 0, fmt.Errorf("params: full-access IM3 not measurable")
	}
	pin := analog.AmpToDBm(st.MixerInAmp)
	return pin + (analog.AmpToDBm(xm.Amplitude)-analog.AmpToDBm(ym.Amplitude))/2, nil
}

// MeasureMixerP1dB measures the mixer's input 1 dB compression point
// in dBm by sweeping the PI amplitude and locating the 1 dB gain
// compression, referring the input level back through the amplifier's
// nominal gain (NominalGains) or through the measured small-signal
// path gain minus nominal downstream gains (Adaptive).
func MeasureMixerP1dB(p *path.Path, method Method, cfg Config, rng *rand.Rand) (Result, error) {
	return new(Sweep).MixerP1dB(p, method, cfg, rng)
}

// MixerP1dB is MeasureMixerP1dB on the caller's sweep.
func (sw *Sweep) MixerP1dB(p *path.Path, method Method, cfg Config, rng *rand.Rand) (Result, error) {
	truth := trueMixerP1dB(p)
	if method == FullAccess {
		m, err := fullAccessMixerP1dB(p)
		if err != nil {
			return Result{}, err
		}
		return Result{Kind: MixerP1dB, Target: p.Mixer.Name(), Method: method,
			Measured: m, True: truth, Unit: "dBm"}, nil
	}
	fIF := ifBin(p, cfg, 900e3)
	fRF := rfFor(p, fIF)
	gd := digitalGain(p, fIF)
	gainAt := func(amp float64) (float64, error) {
		s, _, err := sw.capture(p, msignal.NewTone(fRF, amp), cfg, rng)
		if err != nil {
			return 0, err
		}
		m := dsp.MeasureTone(s, fIF)
		return dsp.AmplitudeDB(m.Amplitude / gd / amp), nil
	}
	small, err := gainAt(0.002)
	if err != nil {
		return Result{}, err
	}
	// Sweep PI amplitude geometrically until compression exceeds 1 dB,
	// then bisect.
	lo, hi := 0.002, 0.0
	for a := 0.004; a < 1.0; a *= 1.3 {
		g, err := gainAt(a)
		if err != nil {
			return Result{}, err
		}
		if small-g >= 1 {
			hi = a
			break
		}
		lo = a
	}
	if hi == 0 {
		return Result{}, fmt.Errorf("params: no compression found up to full scale")
	}
	for i := 0; i < 12; i++ {
		mid := math.Sqrt(lo * hi)
		g, err := gainAt(mid)
		if err != nil {
			return Result{}, err
		}
		if small-g >= 1 {
			hi = mid
		} else {
			lo = mid
		}
	}
	aPI := math.Sqrt(lo * hi)
	// Refer the PI level to the mixer input.
	var gAdB float64
	switch method {
	case NominalGains:
		gAdB = p.Spec.Amp.GainDB.Nominal
	case Adaptive:
		gPath, err := sw.pathGain(p, cfg, rng)
		if err != nil {
			return Result{}, err
		}
		gAdB = gPath.Measured - p.Spec.Mixer.ConvGainDB.Nominal - p.Spec.LPF.GainDB.Nominal
	default:
		return Result{}, fmt.Errorf("params: unknown method %v", method)
	}
	measured := analog.AmpToDBm(aPI) + gAdB
	return Result{Kind: MixerP1dB, Target: p.Mixer.Name(), Method: method,
		Measured: measured, True: truth, Unit: "dBm"}, nil
}

// projN is the length of trueMixerP1dB's fundamental projection and
// projCos its cosine table, cos(2π·i/projN): the same for every device
// and every amplitude of the search, so it is evaluated once.
const projN = 1024

var projCos = func() (c [projN]float64) {
	for i := range c {
		th := 2 * math.Pi * float64(i) / projN
		c[i] = math.Cos(th)
	}
	return c
}()

// trueMixerP1dB numerically finds the instance mixer's true input
// 1 dB compression amplitude from its own nonlinearity (cubic + clip).
func trueMixerP1dB(p *path.Path) float64 {
	nl := analog.NewNonlinearity(1, p.Mixer.IIP3DBm, p.Mixer.P1dBDBm)
	gain := func(a float64) float64 {
		// Fundamental amplitude of NL(a·cos) via 1024-point projection.
		var acc float64
		for _, c := range projCos {
			acc += nl.Apply(a*c) * c
		}
		return 2 * acc / projN / a
	}
	small := gain(1e-4)
	lo, hi := 1e-4, 0.0
	for a := 2e-4; a < 10; a *= 1.2 {
		if dsp.AmplitudeDB(small)-dsp.AmplitudeDB(gain(a)) >= 1 {
			hi = a
			break
		}
		lo = a
	}
	if hi == 0 {
		return math.Inf(1)
	}
	for i := 0; i < 40; i++ {
		mid := math.Sqrt(lo * hi)
		if dsp.AmplitudeDB(small)-dsp.AmplitudeDB(gain(mid)) >= 1 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return analog.AmpToDBm(math.Sqrt(lo * hi))
}

// fullAccessMixerP1dB is trueMixerP1dB exposed as the full-access
// measurement (the tester with a test point sees the same thing).
func fullAccessMixerP1dB(p *path.Path) (float64, error) {
	v := trueMixerP1dB(p)
	if math.IsInf(v, 1) {
		return 0, fmt.Errorf("params: mixer does not compress")
	}
	return v, nil
}

// MeasureLPFCutoff measures the filter's −3 dB corner in Hz by a
// ratiometric IF sweep: each point is normalized to a deep-pass-band
// reference, so block gains cancel and only the corner remains. The
// digital filter response is divided out exactly.
func MeasureLPFCutoff(p *path.Path, cfg Config, rng *rand.Rand) (Result, error) {
	return new(Sweep).LPFCutoff(p, cfg, rng)
}

// LPFCutoff is MeasureLPFCutoff on the caller's sweep.
func (sw *Sweep) LPFCutoff(p *path.Path, cfg Config, rng *rand.Rand) (Result, error) {
	amp := 0.004
	ref := ifBin(p, cfg, 200e3)
	measure := func(fIF float64) (float64, error) {
		s, _, err := sw.capture(p, msignal.NewTone(rfFor(p, fIF), amp), cfg, rng)
		if err != nil {
			return 0, err
		}
		m := dsp.MeasureTone(s, fIF)
		return m.Amplitude / digitalGain(p, fIF), nil
	}
	refAmp, err := measure(ref)
	if err != nil {
		return Result{}, err
	}
	if refAmp <= 0 {
		return Result{}, fmt.Errorf("params: reference tone lost")
	}
	// The reference point itself sits on the Butterworth curve; the
	// −3 dB point relative to DC corresponds to |H(f)|/|H(ref)| =
	// (1/√2)/|Hn(ref)| with |Hn| the unit-gain response. Solve by
	// bisection on the measured ratio against that target.
	target := math.Sqrt(0.5)
	ratioAt := func(fIF float64) (float64, error) {
		a, err := measure(fIF)
		if err != nil {
			return 0, err
		}
		// Undo the reference point's own (nominal) roll-off so the
		// ratio estimates |H(f)|/gain.
		refRolloff := 1 / math.Sqrt(1+math.Pow(ref/p.Spec.LPF.CutoffHz.Nominal, 4))
		return a / (refAmp / refRolloff), nil
	}
	lo := ifBin(p, cfg, 600e3)
	hi := ifBin(p, cfg, 2.6e6)
	rLo, err := ratioAt(lo)
	if err != nil {
		return Result{}, err
	}
	rHi, err := ratioAt(hi)
	if err != nil {
		return Result{}, err
	}
	if rLo < target || rHi > target {
		return Result{}, fmt.Errorf("params: corner outside sweep window [%g, %g]", lo, hi)
	}
	for i := 0; i < 10; i++ {
		mid := ifBin(p, cfg, math.Sqrt(lo*hi))
		r, err := ratioAt(mid)
		if err != nil {
			return Result{}, err
		}
		if r > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	measured := math.Sqrt(lo * hi)
	return Result{Kind: LPFCutoff, Target: p.LPF.Name(), Method: Adaptive,
		Measured: measured, True: p.LPF.CutoffHz, Unit: "Hz"}, nil
}

// MeasureLOFreqError measures the LO frequency error in Hz by applying
// an RF tone derived from the nominal LO and interpolating the exact
// IF peak position at the output (three-point parabolic interpolation
// on log power). A positive error means the LO runs fast.
func MeasureLOFreqError(p *path.Path, cfg Config, rng *rand.Rand) (Result, error) {
	fIF := ifBin(p, cfg, 1.0e6)
	stim := msignal.NewTone(rfFor(p, fIF), 0.004)
	s, _, err := new(Sweep).capture(p, stim, cfg, rng)
	if err != nil {
		return Result{}, err
	}
	k := s.PeakBin(s.Bin(fIF)-20, s.Bin(fIF)+20)
	if k <= 0 || k >= len(s.Power)-1 {
		return Result{}, fmt.Errorf("params: IF peak at spectrum edge")
	}
	// Parabolic interpolation on dB magnitudes.
	la := dsp.DB(s.Power[k-1])
	lb := dsp.DB(s.Power[k])
	lc := dsp.DB(s.Power[k+1])
	den := la - 2*lb + lc
	delta := 0.0
	if den != 0 {
		delta = 0.5 * (la - lc) / den
	}
	fMeas := (float64(k) + delta) * p.Spec.ADCRate / float64(s.NFFT)
	// The RF was nominal-LO + fIF; a fast LO lowers the IF.
	measured := fIF - fMeas
	return Result{Kind: LOFreqError, Target: p.LO.Name(), Method: Adaptive,
		Measured: measured, True: p.LO.FrequencyError(), Unit: "Hz"}, nil
}

// MeasureStopbandGain measures the analog filter's stop-band gain in
// dB at ~2.2×fc, ratiometrically against a deep-pass-band reference so
// the path gain cancels; the digital channel filter's (exactly known)
// response at both frequencies is divided out. Whether the probe tone
// survives the digital filter at all is the planner's observability
// call.
func MeasureStopbandGain(p *path.Path, cfg Config, rng *rand.Rand) (Result, error) {
	fRef := ifBin(p, cfg, 200e3)
	fStop := ifBin(p, cfg, 2.2*p.Spec.LPF.CutoffHz.Nominal)
	if fStop >= p.Spec.ADCRate/2 {
		return Result{}, fmt.Errorf("params: stop-band probe %g beyond Nyquist: %w", fStop, ErrUntranslatable)
	}
	const amp = 0.02
	sw := new(Sweep)
	measure := func(f float64) (float64, error) {
		s, _, err := sw.capture(p, msignal.NewTone(rfFor(p, f), amp), cfg, rng)
		if err != nil {
			return 0, err
		}
		return dsp.MeasureTone(s, f).Amplitude / digitalGain(p, f), nil
	}
	aRef, err := measure(fRef)
	if err != nil {
		return Result{}, err
	}
	aStop, err := measure(fStop)
	if err != nil {
		return Result{}, err
	}
	if aStop <= 0 || aRef <= 0 {
		return Result{}, fmt.Errorf("params: stop-band probe below the floor: %w", ErrUntranslatable)
	}
	// The reference point sits on the filter curve too; undo its
	// (nominal) roll-off to refer the ratio to the pass-band gain.
	refRolloff := 1 / math.Sqrt(1+math.Pow(fRef/p.Spec.LPF.CutoffHz.Nominal, 4))
	measured := dsp.AmplitudeDB(aStop/aRef*refRolloff) + p.Spec.LPF.GainDB.Nominal
	truth := p.LPF.StopbandGainDB(fStop)
	return Result{Kind: StopbandGain, Target: p.LPF.Name(), Method: Adaptive,
		Measured: measured, True: truth, Unit: "dB"}, nil
}

// MeasureAmpHD3 measures the amplifier's third-harmonic distortion in
// dBc with full access to its ports (Table 1's "3rd Order Harmonic").
// Through the path, the amp's RF harmonics fall far out of the IF band
// and are filtered, so this is inherently a full-access test; the
// amp's cubic nonlinearity is still covered at system level via the
// IM3/IIP3 product family.
func MeasureAmpHD3(p *path.Path, inAmp float64, cfg Config, rng *rand.Rand) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if inAmp <= 0 {
		return Result{}, fmt.Errorf("params: HD3 stimulus amplitude must be positive")
	}
	fs := p.Spec.SimRate
	n := cfg.N * p.Decim()
	f := dsp.CoherentBin(fs, n, n/37)
	x := msignal.NewTone(f, inAmp).Render(n, fs, rng)
	out := p.Amp.Process(x, fs, rng)
	s, err := dsp.PowerSpectrum(out, fs, dsp.Rectangular)
	if err != nil {
		return Result{}, err
	}
	fund := dsp.MeasureTone(s, f)
	h3 := dsp.MeasureTone(s, 3*f)
	if h3.Amplitude <= 0 {
		return Result{}, fmt.Errorf("params: third harmonic below the floor: %w", ErrUntranslatable)
	}
	measured := dsp.AmplitudeDB(h3.Amplitude / fund.Amplitude)
	// Oracle from the instance's cubic model.
	nl := analog.NewNonlinearity(p.Amp.Gain(), p.Amp.IIP3DBm, p.Amp.P1dBDBm)
	truth := dsp.AmplitudeDB(nl.HD3Amplitude(inAmp) / (p.Amp.Gain() * inAmp))
	return Result{Kind: AmpHD3, Target: p.Amp.Name(), Method: FullAccess,
		Measured: measured, True: truth, Unit: "dBc"}, nil
}

// MeasureGroupDelay measures the path's baseband group delay in
// seconds — one of the paper's phase-requiring tests ("offset and
// group delay measurements") that the attribute model must carry phase
// for. Two nearby IF tones are applied; the group delay follows from
// their output phase difference, with the unknown (but common) LO
// phase cancelling in the difference:
//
//	τ = t0 − Δφ / (2π·Δf)
//
// where t0 is the known capture offset. The oracle is the realized
// filter's phase slope plus the digital filter's linear-phase delay.
func MeasureGroupDelay(p *path.Path, cfg Config, rng *rand.Rand) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	k1 := int(math.Round(0.9e6 * float64(cfg.N) / p.Spec.ADCRate))
	k2 := k1 + 8
	f1 := dsp.CoherentBin(p.Spec.ADCRate, cfg.N, k1)
	f2 := dsp.CoherentBin(p.Spec.ADCRate, cfg.N, k2)
	stim := msignal.NewTwoTone(rfFor(p, f1), rfFor(p, f2), 0.004)
	cap, err := p.Run(stim, cfg.N+cfg.Settle, rng)
	if err != nil {
		return Result{}, err
	}
	rec := cap.FilterOut[cfg.Settle:]
	phi1 := dsp.PhaseAt(rec, k1)
	phi2 := dsp.PhaseAt(rec, k2)
	dphi := phi2 - phi1
	// Predict the phase difference for a rough delay guess (the
	// digital filter's linear phase dominates) and unwrap toward it.
	t0 := float64(cfg.Settle) / p.Spec.ADCRate
	df := f2 - f1
	tauGuess := float64(len(p.Spec.FilterCoeffs)-1) / 2 / p.Spec.ADCRate
	pred := 2 * math.Pi * df * (t0 - tauGuess)
	for dphi-pred > math.Pi {
		dphi -= 2 * math.Pi
	}
	for dphi-pred < -math.Pi {
		dphi += 2 * math.Pi
	}
	measured := t0 - dphi/(2*math.Pi*df)
	truth := p.LPF.GroupDelayAt((f1+f2)/2, p.Spec.SimRate) +
		float64(len(p.Spec.FilterCoeffs)-1)/2/p.Spec.ADCRate
	return Result{Kind: GroupDelay, Target: "path", Method: Adaptive,
		Measured: measured, True: truth, Unit: "s"}, nil
}

// MeasureDynamicRange measures the path's usable dynamic range in dB:
// the span from the minimum detectable input (SINAD = 6 dB) up to the
// 1 dB gain-compression input, both found by bisection on the PI
// amplitude. This is the composed DR of Table 1 — the per-block DRs
// partition it, which is exactly why the paper measures it as one
// composite parameter.
func MeasureDynamicRange(p *path.Path, cfg Config, rng *rand.Rand) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	sw := new(Sweep)
	small, err := sw.gainAtAmplitude(p, 0.002, cfg, rng)
	if err != nil {
		return Result{}, err
	}
	// Upper edge: 1 dB compression via geometric bisection.
	lo, hi := 0.002, 0.0
	for a := 0.004; a < 1.0; a *= 1.4 {
		g, err := sw.gainAtAmplitude(p, a, cfg, rng)
		if err != nil {
			return Result{}, err
		}
		if small-g >= 1 {
			hi = a
			break
		}
		lo = a
	}
	if hi == 0 {
		return Result{}, fmt.Errorf("params: no compression up to full scale: %w", ErrUntranslatable)
	}
	for i := 0; i < 8; i++ {
		mid := math.Sqrt(lo * hi)
		g, err := sw.gainAtAmplitude(p, mid, cfg, rng)
		if err != nil {
			return Result{}, err
		}
		if small-g >= 1 {
			hi = mid
		} else {
			lo = mid
		}
	}
	top := math.Sqrt(lo * hi)
	// Lower edge: SINAD = 6 dB.
	lo, hi = 0.0, 0.002
	for a := 0.001; a > 1e-7; a /= 2 {
		s, err := sw.snrAtAmplitude(p, a, cfg, rng)
		if err != nil {
			return Result{}, err
		}
		if s < 6 {
			lo = a
			break
		}
		hi = a
	}
	if lo == 0 {
		return Result{}, fmt.Errorf("params: noise floor unreachable above 0.1 µV")
	}
	for i := 0; i < 6; i++ {
		mid := math.Sqrt(lo * hi)
		s, err := sw.snrAtAmplitude(p, mid, cfg, rng)
		if err != nil {
			return Result{}, err
		}
		if s < 6 {
			lo = mid
		} else {
			hi = mid
		}
	}
	bottom := math.Sqrt(lo * hi)
	measured := dsp.AmplitudeDB(top / bottom)
	// Oracle: the mixer's true 1 dB compression referred to the PI
	// over the noise-implied minimum detectable input.
	aTop := analog.DBmToAmp(trueMixerP1dB(p)) / math.Pow(10, p.Amp.GainDB/20)
	attr := p.Propagate(msignal.NewTone(p.Spec.LO.FreqHz.Nominal+900e3, 1), path.StageADCIn)
	lsb := p.ADC.LSB()
	noise := math.Sqrt(attr.NoiseRMS*attr.NoiseRMS + lsb*lsb/12 +
		p.Spec.ADC.NoiseRMSLSB*p.Spec.ADC.NoiseRMSLSB*lsb*lsb)
	aBot := noise * math.Sqrt2 * math.Pow(10, 6.0/20) / attr.Tones[0].Amp
	truth := dsp.AmplitudeDB(aTop / aBot)
	return Result{Kind: DynamicRange, Target: "path", Method: Adaptive,
		Measured: measured, True: truth, Unit: "dB",
	}, nil
}

// MeasureLOIsolation measures the mixer's LO-to-output isolation in
// dB with a zero input: the LO leakage aliases from f_LO into the
// first Nyquist zone at the converter, and its amplitude is referred
// back to the mixer output through the nominal LPF roll-off and the
// exactly-known digital filter. Whether this test is translatable at
// all depends on the leak clearing the converter noise — the planner
// checks that before scheduling it.
func MeasureLOIsolation(p *path.Path, cfg Config, rng *rand.Rand) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	cap, err := p.Run(msignal.Signal{}, cfg.N+cfg.Settle, rng)
	if err != nil {
		return Result{}, err
	}
	rec := cap.FilterOut[cfg.Settle:]
	// The aliased LO generally lands off-bin; use a Hann window.
	s, err := dsp.PowerSpectrum(rec, p.Spec.ADCRate, dsp.Hann)
	if err != nil {
		return Result{}, err
	}
	fAlias := dsp.AliasFrequency(p.Spec.LO.FreqHz.Nominal, p.Spec.ADCRate)
	m := dsp.MeasureTone(s, fAlias)
	if m.Amplitude <= 0 {
		return Result{}, fmt.Errorf("params: LO leakage below the noise floor: %w", ErrUntranslatable)
	}
	// Refer back through the known responses.
	gd := digitalGain(p, fAlias)
	r := math.Pow(p.Spec.LO.FreqHz.Nominal/p.Spec.LPF.CutoffHz.Nominal, 4)
	hB := math.Pow(10, p.Spec.LPF.GainDB.Nominal/20) / math.Sqrt(1+r)
	atMixer := m.Amplitude / gd / hB
	// The amplifier's DC offset self-mixes and lands exactly at f_LO,
	// coherent with the feed-through; subtract its nominal
	// contribution (2·G_M·V_off). The offset tolerance is part of
	// this test's error budget.
	upconvOffset := 2 * math.Pow(10, p.Spec.Mixer.ConvGainDB.Nominal/20) *
		math.Abs(p.Spec.Amp.OffsetV.Nominal)
	leakAtMixer := atMixer - upconvOffset
	if leakAtMixer <= 0 {
		return Result{}, fmt.Errorf("params: LO leakage masked by upconverted offset: %w", ErrUntranslatable)
	}
	measured := dsp.AmplitudeDB(p.Spec.Mixer.LODriveAmpV / leakAtMixer)
	return Result{Kind: LOIsolation, Target: p.Mixer.Name(), Method: Adaptive,
		Measured: measured, True: p.Mixer.LOIsolationDB, Unit: "dB"}, nil
}

// MeasureGainAtAmplitude returns the path gain in dB measured with a
// 900 kHz-IF tone at the given PI amplitude. Comparing this against
// the small-signal gain exposes compression (the Figure 3 saturation
// boundary check); the LPF roll-off at the IF cancels in the
// difference.
func MeasureGainAtAmplitude(p *path.Path, piAmp float64, cfg Config, rng *rand.Rand) (float64, error) {
	return new(Sweep).gainAtAmplitude(p, piAmp, cfg, rng)
}

// gainAtAmplitude is MeasureGainAtAmplitude on the caller's sweep.
func (sw *Sweep) gainAtAmplitude(p *path.Path, piAmp float64, cfg Config, rng *rand.Rand) (float64, error) {
	fIF := ifBin(p, cfg, 900e3)
	s, _, err := sw.capture(p, msignal.NewTone(rfFor(p, fIF), piAmp), cfg, rng)
	if err != nil {
		return 0, err
	}
	m := dsp.MeasureTone(s, fIF)
	return dsp.AmplitudeDB(m.Amplitude / digitalGain(p, fIF) / piAmp), nil
}

// MeasureLOFreqErrorFit measures the LO frequency error with a four-
// parameter IEEE-1057 sine fit instead of spectral peak interpolation
// — typically an order of magnitude tighter, at the cost of a
// nonlinear solve. Same conventions as MeasureLOFreqError.
func MeasureLOFreqErrorFit(p *path.Path, cfg Config, rng *rand.Rand) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	fIF := ifBin(p, cfg, 1.0e6)
	stim := msignal.NewTone(rfFor(p, fIF), 0.004)
	cap, err := p.Run(stim, cfg.N+cfg.Settle, rng)
	if err != nil {
		return Result{}, err
	}
	rec := cap.FilterOut[cfg.Settle:]
	fit, err := dsp.SineFit4(rec, p.Spec.ADCRate, fIF, 16)
	if err != nil {
		return Result{}, err
	}
	measured := fIF - fit.Frequency
	return Result{Kind: LOFreqError, Target: p.LO.Name(), Method: Adaptive,
		Measured: measured, True: p.LO.FrequencyError(), Unit: "Hz"}, nil
}

// MeasureSNRAtAmplitude captures a tone at the given PI amplitude and
// returns the output SNR in dB — the boundary check used by
// translation-by-composition (Figure 3): at minimum amplitude a
// negative gain error shows up as SNR loss, at maximum amplitude a
// positive gain error shows up as saturation distortion.
func MeasureSNRAtAmplitude(p *path.Path, piAmp float64, cfg Config, rng *rand.Rand) (float64, error) {
	return new(Sweep).snrAtAmplitude(p, piAmp, cfg, rng)
}

// snrAtAmplitude is MeasureSNRAtAmplitude on the caller's sweep.
func (sw *Sweep) snrAtAmplitude(p *path.Path, piAmp float64, cfg Config, rng *rand.Rand) (float64, error) {
	fIF := ifBin(p, cfg, 900e3)
	s, _, err := sw.capture(p, msignal.NewTone(rfFor(p, fIF), piAmp), cfg, rng)
	if err != nil {
		return 0, err
	}
	an, err := dsp.AnalyzeSpectrum(s, []float64{fIF}, dsp.AnalyzeOptions{})
	if err != nil {
		return 0, err
	}
	return an.SINAD, nil
}
