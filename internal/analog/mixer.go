package analog

import (
	"math"
	"math/rand"

	"mstx/internal/msignal"
	"mstx/internal/tolerance"
)

// OscillatorSpec specifies a local oscillator: frequency (with the
// synthesizer's relative error as tolerance), amplitude, and phase
// noise as a per-sample random-walk variance.
type OscillatorSpec struct {
	// Name identifies the block.
	Name string
	// FreqHz is the LO frequency; its Sigma models frequency error.
	FreqHz tolerance.Value
	// PhaseNoiseRadPerSample is the standard deviation of the random-
	// walk phase increment per sample, radians (0 = noiseless LO).
	PhaseNoiseRadPerSample float64
}

// Build returns the nominal oscillator instance.
func (s OscillatorSpec) Build() *Oscillator {
	return &Oscillator{Spec: s, FreqHz: s.FreqHz.Nominal}
}

// Sample returns a process-varied oscillator instance.
func (s OscillatorSpec) Sample(rng *rand.Rand) *Oscillator {
	return &Oscillator{Spec: s, FreqHz: s.FreqHz.Sample(rng)}
}

// Oscillator is an LO device instance.
type Oscillator struct {
	// Spec is the specification the device was built from.
	Spec OscillatorSpec
	// FreqHz is the actual LO frequency of this instance.
	FreqHz float64
}

// Name returns the instance name.
func (o *Oscillator) Name() string { return o.Spec.Name }

// Phases returns the LO phase trajectory θ[i] for n samples at rate
// fs, including random-walk phase noise drawn from rng.
func (o *Oscillator) Phases(n int, fs float64, rng *rand.Rand) []float64 {
	return o.phasesInto(make([]float64, n), fs, rng)
}

func (o *Oscillator) phasesInto(th []float64, fs float64, rng *rand.Rand) []float64 {
	var jitter float64
	w := 2 * math.Pi * o.FreqHz / fs
	for i := range th {
		if rng != nil && o.Spec.PhaseNoiseRadPerSample > 0 {
			jitter += rng.NormFloat64() * o.Spec.PhaseNoiseRadPerSample
		}
		th[i] = w*float64(i) + jitter
	}
	return th
}

// carrier returns cos θ[i] for n samples at rate fs, drawing phase
// noise from rng exactly as Phases does. Without a draw (nil rng or a
// noiseless LO) θ[i] = w·i, the cosines depend only on FreqHz, fs and
// n, and tab keeps them across calls as a msignal.ClockExpr table
// (the same bits: adding a zero jitter changes no phase); a jittered
// carrier is filled fresh into tab's buffer every call. The table
// stays out of the process-wide set, since FreqHz is drawn per device.
// A nil tab fills a new buffer.
func (o *Oscillator) carrier(tab *msignal.CosTable, n int, fs float64, rng *rand.Rand) []float64 {
	if tab == nil {
		tab = new(msignal.CosTable)
	}
	if rng == nil || o.Spec.PhaseNoiseRadPerSample <= 0 {
		return tab.PrivateCosines(msignal.ClockExpr, o.FreqHz, 0, fs, n)
	}
	c := o.phasesInto(tab.Reset(n), fs, rng)
	for i, th := range c {
		c[i] = math.Cos(th)
	}
	return c
}

// FrequencyError returns the actual-minus-nominal LO frequency, Hz —
// the "frequency error" parameter of Table 1.
func (o *Oscillator) FrequencyError() float64 {
	return o.FreqHz - o.Spec.FreqHz.Nominal
}

// MixerSpec specifies a down-conversion mixer, matching Table 1's
// mixer parameters: conversion gain, IIP3, LO isolation, NF, P1dB.
type MixerSpec struct {
	// Name identifies the block.
	Name string
	// ConvGainDB is the conversion (voltage) gain in dB with spread.
	ConvGainDB tolerance.Value
	// IIP3DBm is the input IP3 with spread.
	IIP3DBm tolerance.Value
	// P1dBDBm is the input 1 dB compression point with spread.
	P1dBDBm tolerance.Value
	// NFDB is the mixer noise figure, dB.
	NFDB float64
	// LOIsolationDB is the LO-to-output isolation in dB (how far the
	// LO leakage sits below the LO drive), with spread.
	LOIsolationDB tolerance.Value
	// LODriveAmpV is the LO amplitude at the mixer port, volts; the
	// leakage amplitude is LODriveAmpV / 10^(iso/20).
	LODriveAmpV float64
}

// Build returns the nominal mixer driven by lo.
func (s MixerSpec) Build(lo *Oscillator) *Mixer {
	return &Mixer{
		Spec:          s,
		LO:            lo,
		ConvGainDB:    s.ConvGainDB.Nominal,
		IIP3DBm:       s.IIP3DBm.Nominal,
		P1dBDBm:       s.P1dBDBm.Nominal,
		NFDB:          s.NFDB,
		LOIsolationDB: s.LOIsolationDB.Nominal,
	}
}

// Sample returns a process-varied mixer driven by lo.
func (s MixerSpec) Sample(lo *Oscillator, rng *rand.Rand) *Mixer {
	return &Mixer{
		Spec:          s,
		LO:            lo,
		ConvGainDB:    s.ConvGainDB.Sample(rng),
		IIP3DBm:       s.IIP3DBm.Sample(rng),
		P1dBDBm:       s.P1dBDBm.Sample(rng),
		NFDB:          s.NFDB,
		LOIsolationDB: s.LOIsolationDB.Sample(rng),
	}
}

// Mixer is a device instance of a down-converting mixer.
type Mixer struct {
	// Spec is the specification the device was built from.
	Spec MixerSpec
	// LO is the oscillator driving the mixer.
	LO *Oscillator
	// ConvGainDB is the actual conversion gain, dB.
	ConvGainDB float64
	// IIP3DBm is the actual input IP3, dBm.
	IIP3DBm float64
	// P1dBDBm is the actual input 1 dB compression, dBm.
	P1dBDBm float64
	// NFDB is the actual noise figure, dB.
	NFDB float64
	// LOIsolationDB is the actual LO-to-output isolation, dB.
	LOIsolationDB float64
}

// Name implements Block.
func (m *Mixer) Name() string { return m.Spec.Name }

// ConvGain returns the actual linear conversion gain.
func (m *Mixer) ConvGain() float64 {
	return math.Pow(10, m.ConvGainDB/20)
}

// loLeakAmp returns the LO leakage amplitude at the output.
func (m *Mixer) loLeakAmp() float64 {
	return m.Spec.LODriveAmpV / math.Pow(10, m.LOIsolationDB/20)
}

// Process implements Block: the RF input passes the cubic
// nonlinearity, is multiplied by 2cos(θ_LO) scaled so a tone at
// f_RF produces conversion-gain·A at |f_RF − f_LO|, and LO leakage
// plus NF noise are added.
func (m *Mixer) Process(x []float64, fs float64, rng *rand.Rand) []float64 {
	return m.ProcessInto(make([]float64, len(x)), x, fs, rng, nil)
}

// ProcessInto is Process writing into dst (len(x) samples; dst may be
// x itself) and returning it. A reused lo table keeps the LO carrier
// cosines across captures whenever no phase noise is drawn (nil rng or
// a noiseless LO); a nil lo fills a new table.
func (m *Mixer) ProcessInto(dst, x []float64, fs float64, rng *rand.Rand, lo *msignal.CosTable) []float64 {
	nl := NewNonlinearity(1, m.IIP3DBm, m.P1dBDBm) // unit-gain front nonlinearity
	g := m.ConvGain()
	nIn := NoiseRMSFromNF(m.NFDB, fs/2)
	leak := m.loLeakAmp()
	c := m.LO.carrier(lo, len(x), fs, rng)
	out := dst[:len(x)]
	for i, v := range x {
		if rng != nil && nIn > 0 {
			v += rng.NormFloat64() * nIn
		}
		rf := nl.Apply(v)
		out[i] = 2*g*rf*c[i] + leak*c[i]
	}
	return out
}

// Propagate implements Block: tones translate to |f − f_LO| with the
// conversion gain, the LO's relative frequency error enters the
// frequency accuracy, the gain tolerance enters the amplitude
// accuracy, LO leakage appears as a spur at f_LO, cubic spurs are
// added, and NF noise accumulates. The sum products (f + f_LO) are
// assumed removed by the following low-pass filter and are not
// tracked.
func (m *Mixer) Propagate(in msignal.Signal) msignal.Signal {
	gNom := math.Pow(10, m.Spec.ConvGainDB.Nominal/20)
	relTol := lnGainRelTol(m.Spec.ConvGainDB)
	// Cubic spurs are generated at RF before translation; compute them
	// on the input, then translate everything together.
	nl := NewNonlinearity(1, m.Spec.IIP3DBm.Nominal, m.Spec.P1dBDBm.Nominal)
	rf := addCubicSpurs(in, in, nl)
	freqRelTol := m.LO.Spec.FreqHz.RelSigma()
	out := rf.Translate(-m.LO.Spec.FreqHz.Nominal, freqRelTol)
	out = out.ScaleWithTolerance(gNom, relTol)
	out = out.AddNoise(gNom * NoiseRMSFromNF(m.NFDB, NominalNoiseBandwidth))
	// LO leakage appears at the output at f_LO (which after the ideal
	// translation bookkeeping sits at f_LO itself — it is not mixed).
	isoNom := m.Spec.LOIsolationDB.Nominal
	leak := m.Spec.LODriveAmpV / math.Pow(10, isoNom/20)
	if leak > 0 {
		out = out.AddSpur(m.LO.Spec.FreqHz.Nominal, leak)
	}
	return out
}
