package analog

import (
	"math"
	"math/rand"

	"mstx/internal/msignal"
	"mstx/internal/tolerance"
)

// AmplifierSpec is the designer-facing specification of an amplifier:
// nominal parameters with tolerances, matching the Table 1 parameter
// set for the Amp block (gain, IIP3, DC offset, 3rd-order harmonic /
// nonlinearity, noise figure).
type AmplifierSpec struct {
	// Name identifies the block.
	Name string
	// GainDB is the voltage gain in dB with its process spread.
	GainDB tolerance.Value
	// IIP3DBm is the input third-order intercept with spread.
	IIP3DBm tolerance.Value
	// P1dBDBm is the input 1 dB compression point with spread.
	P1dBDBm tolerance.Value
	// NFDB is the noise figure in dB (nominal; noise is not a per-
	// device Monte-Carlo parameter in this model).
	NFDB float64
	// OffsetV is the output DC offset with spread.
	OffsetV tolerance.Value
}

// Build returns the nominal device instance.
func (s AmplifierSpec) Build() *Amplifier {
	return &Amplifier{
		Spec:    s,
		GainDB:  s.GainDB.Nominal,
		IIP3DBm: s.IIP3DBm.Nominal,
		P1dBDBm: s.P1dBDBm.Nominal,
		NFDB:    s.NFDB,
		OffsetV: s.OffsetV.Nominal,
	}
}

// Sample returns a process-varied device instance drawn from the
// spec's tolerances.
func (s AmplifierSpec) Sample(rng *rand.Rand) *Amplifier {
	return &Amplifier{
		Spec:    s,
		GainDB:  s.GainDB.Sample(rng),
		IIP3DBm: s.IIP3DBm.Sample(rng),
		P1dBDBm: s.P1dBDBm.Sample(rng),
		NFDB:    s.NFDB,
		OffsetV: s.OffsetV.Sample(rng),
	}
}

// Amplifier is a device instance. The exported fields are the actual
// parameter values of this instance; experiments mutate them to model
// parametric (soft) faults.
type Amplifier struct {
	// Spec is the specification the device was built from.
	Spec AmplifierSpec
	// GainDB is the actual voltage gain, dB.
	GainDB float64
	// IIP3DBm is the actual input IP3, dBm.
	IIP3DBm float64
	// P1dBDBm is the actual input 1 dB compression point, dBm.
	P1dBDBm float64
	// NFDB is the actual noise figure, dB.
	NFDB float64
	// OffsetV is the actual output DC offset, volts.
	OffsetV float64
}

// Name implements Block.
func (a *Amplifier) Name() string { return a.Spec.Name }

// Gain returns the actual linear voltage gain.
func (a *Amplifier) Gain() float64 {
	return math.Pow(10, a.GainDB/20)
}

// nonlinearity builds the instance's memoryless model.
func (a *Amplifier) nonlinearity() Nonlinearity {
	return NewNonlinearity(a.Gain(), a.IIP3DBm, a.P1dBDBm)
}

// Process implements Block: y = NL(x + n_in) + offset, with the
// input-referred noise drawn over the simulation Nyquist bandwidth.
func (a *Amplifier) Process(x []float64, fs float64, rng *rand.Rand) []float64 {
	return a.ProcessInto(make([]float64, len(x)), x, fs, rng)
}

// ProcessInto is Process writing into dst (len(x) samples; dst may be
// x itself) and returning it.
func (a *Amplifier) ProcessInto(dst, x []float64, fs float64, rng *rand.Rand) []float64 {
	nl := a.nonlinearity()
	nIn := NoiseRMSFromNF(a.NFDB, fs/2)
	out := dst[:len(x)]
	for i, v := range x {
		if rng != nil && nIn > 0 {
			v += rng.NormFloat64() * nIn
		}
		out[i] = nl.Apply(v) + a.OffsetV
	}
	return out
}

// Propagate implements Block: scales tones by the *nominal* gain
// (that is all the tester knows), accumulates the gain tolerance into
// the amplitude accuracy, adds the offset uncertainty, the
// NF-implied noise, and the worst-case IM3/HD3 spurs predicted from
// the nominal nonlinearity.
func (a *Amplifier) Propagate(in msignal.Signal) msignal.Signal {
	gNom := math.Pow(10, a.Spec.GainDB.Nominal/20)
	relTol := lnGainRelTol(a.Spec.GainDB)
	out := in.ScaleWithTolerance(gNom, relTol)
	out = out.AddDC(a.Spec.OffsetV.Nominal, a.Spec.OffsetV.Sigma)
	// Input-referred NF noise over the signal band appears at the
	// output scaled by gain. The propagation model tracks total noise
	// assuming the path's working bandwidth; using the Nyquist band of
	// the eventual ADC is the path package's job — here we accumulate
	// the spectral density as an RMS over a 1 Hz reference and let the
	// caller scale. To stay self-contained we use the paper's
	// convention of tracking in-band noise for a nominal 1 MHz band.
	out = out.AddNoise(gNom * NoiseRMSFromNF(a.NFDB, NominalNoiseBandwidth))
	// Distortion spurs from the nominal nonlinearity.
	nl := NewNonlinearity(gNom, a.Spec.IIP3DBm.Nominal, a.Spec.P1dBDBm.Nominal)
	out = addCubicSpurs(out, in, nl)
	return out
}

// NominalNoiseBandwidth is the bandwidth over which Propagate
// integrates noise densities, Hz. The paper's path ends in an ADC
// sampling at a few MHz; 1 MHz is the working channel bandwidth of
// the experimental set-up.
const NominalNoiseBandwidth = 1e6

// lnGainRelTol converts a dB-domain 1σ spread to the relative 1σ of
// the linear gain (exact for small spreads: σ_rel = σ_dB·ln10/20).
func lnGainRelTol(v tolerance.Value) float64 {
	return v.Sigma * math.Ln10 / 20
}

// addCubicSpurs appends the dominant third-order products of the
// input tones to the output spur list: HD3 of each tone and, for two
// or more tones, the IM3 pairs of the first two tones.
func addCubicSpurs(out, in msignal.Signal, nl Nonlinearity) msignal.Signal {
	if nl.A3 == 0 {
		return out
	}
	for _, t := range in.Tones {
		if hd3 := nl.HD3Amplitude(t.Amp); hd3 > 0 {
			out = out.AddSpur(3*t.Freq, hd3)
		}
	}
	if len(in.Tones) >= 2 {
		t1, t2 := in.Tones[0], in.Tones[1]
		a := math.Min(t1.Amp, t2.Amp)
		if im3 := nl.IM3Amplitude(a); im3 > 0 {
			out = out.AddSpur(math.Abs(2*t1.Freq-t2.Freq), im3)
			out = out.AddSpur(math.Abs(2*t2.Freq-t1.Freq), im3)
		}
	}
	return out
}
