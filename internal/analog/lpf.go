package analog

import (
	"math"
	"math/rand"

	"mstx/internal/msignal"
	"mstx/internal/tolerance"
)

// LowPassSpec specifies the switched-capacitor low-pass filter,
// matching Table 1's LPF parameters: pass-band gain, stop-band gain
// (set by the filter order), cut-off frequency, dynamic range. The SC
// realization adds clock feed-through spurs at the switching
// frequency.
type LowPassSpec struct {
	// Name identifies the block.
	Name string
	// CutoffHz is the −3 dB corner with process spread (capacitor
	// ratio / clock dependent).
	CutoffHz tolerance.Value
	// GainDB is the pass-band voltage gain with spread.
	GainDB tolerance.Value
	// ClockHz is the SC switching clock frequency.
	ClockHz float64
	// ClockSpurV is the amplitude of the clock feed-through at the
	// output, volts (0 disables).
	ClockSpurV float64
	// OutputNoiseRMS is the filter's own output noise, volts RMS over
	// the channel bandwidth.
	OutputNoiseRMS float64
	// OffsetV is the output DC offset with spread.
	OffsetV tolerance.Value
}

// Build returns the nominal filter instance.
func (s LowPassSpec) Build() *LowPass {
	return &LowPass{
		Spec:     s,
		CutoffHz: s.CutoffHz.Nominal,
		GainDB:   s.GainDB.Nominal,
		OffsetV:  s.OffsetV.Nominal,
	}
}

// Sample returns a process-varied filter instance.
func (s LowPassSpec) Sample(rng *rand.Rand) *LowPass {
	return &LowPass{
		Spec:     s,
		CutoffHz: s.CutoffHz.Sample(rng),
		GainDB:   s.GainDB.Sample(rng),
		OffsetV:  s.OffsetV.Sample(rng),
	}
}

// LowPass is a second-order Butterworth low-pass device instance
// realized as a switched-capacitor biquad.
type LowPass struct {
	// Spec is the specification the device was built from.
	Spec LowPassSpec
	// CutoffHz is the actual −3 dB corner of this instance.
	CutoffHz float64
	// GainDB is the actual pass-band gain, dB.
	GainDB float64
	// OffsetV is the actual output DC offset, volts.
	OffsetV float64
}

// Name implements Block.
func (l *LowPass) Name() string { return l.Spec.Name }

// Gain returns the actual linear pass-band gain.
func (l *LowPass) Gain() float64 { return math.Pow(10, l.GainDB/20) }

// biquad computes bilinear-transform Butterworth biquad coefficients
// for the instance cutoff at sample rate fs.
func (l *LowPass) biquad(fs float64) (b0, b1, b2, a1, a2 float64) {
	fc := l.CutoffHz
	// Clamp the corner below Nyquist for numerical sanity.
	if fc >= 0.49*fs {
		fc = 0.49 * fs
	}
	k := math.Tan(math.Pi * fc / fs)
	norm := 1 / (1 + math.Sqrt2*k + k*k)
	b0 = k * k * norm
	b1 = 2 * b0
	b2 = b0
	a1 = 2 * (k*k - 1) * norm
	a2 = (1 - math.Sqrt2*k + k*k) * norm
	return
}

// Process implements Block: biquad filtering from zero state, scaled
// by the pass-band gain, plus clock feed-through, output noise, and
// DC offset.
func (l *LowPass) Process(x []float64, fs float64, rng *rand.Rand) []float64 {
	return l.ProcessInto(make([]float64, len(x)), x, fs, rng, nil)
}

// ProcessInto is Process writing into dst (len(x) samples; dst may be
// x itself) and returning it. The clock feed-through cosines depend
// only on Spec.ClockHz, fs and len(x); clk keeps them across calls (a
// nil clk starts a new table), reading the process-wide set on a miss.
func (l *LowPass) ProcessInto(dst, x []float64, fs float64, rng *rand.Rand, clk *msignal.CosTable) []float64 {
	b0, b1, b2, a1, a2 := l.biquad(fs)
	g := l.Gain()
	out := dst[:len(x)]
	var spur []float64
	if l.Spec.ClockSpurV > 0 {
		if clk == nil {
			clk = new(msignal.CosTable)
		}
		spur = clk.Cosines(msignal.ClockExpr, l.Spec.ClockHz, 0, fs, len(x))
	}
	var x1, x2, y1, y2 float64
	for i, v := range x {
		y := b0*v + b1*x1 + b2*x2 - a1*y1 - a2*y2
		x2, x1 = x1, v
		y2, y1 = y1, y
		o := g*y + l.OffsetV
		if l.Spec.ClockSpurV > 0 {
			o += l.Spec.ClockSpurV * spur[i]
		}
		if rng != nil && l.Spec.OutputNoiseRMS > 0 {
			o += rng.NormFloat64() * l.Spec.OutputNoiseRMS
		}
		out[i] = o
	}
	return out
}

// ResponseMag returns the instance's analog-prototype magnitude
// response at frequency f: gain / sqrt(1 + (f/fc)^4) — the 2nd-order
// Butterworth roll-off used for attribute propagation.
func (l *LowPass) ResponseMag(f float64) float64 {
	r := f / l.CutoffHz
	return l.Gain() / math.Sqrt(1+r*r*r*r)
}

// nominalResponseMag is ResponseMag with nominal parameters — the
// tester's model of the filter.
func (l *LowPass) nominalResponseMag(f float64) float64 {
	g := math.Pow(10, l.Spec.GainDB.Nominal/20)
	r := f / l.Spec.CutoffHz.Nominal
	return g / math.Sqrt(1+r*r*r*r)
}

// Propagate implements Block: each tone and spur is scaled by the
// nominal frequency response (so out-of-band spurs attenuate), the
// gain tolerance enters amplitude accuracy, and near the corner the
// cut-off tolerance adds additional amplitude uncertainty via the
// slope of |H|.
func (l *LowPass) Propagate(in msignal.Signal) msignal.Signal {
	out := in.Clone()
	fcNom := l.Spec.CutoffHz.Nominal
	for i := range out.Tones {
		f := out.Tones[i].Freq
		out.Tones[i].Amp = in.Tones[i].Amp * l.nominalResponseMag(f)
		// The paper's attribute model carries phase for group-delay
		// style tests: apply the nominal 2nd-order Butterworth phase.
		out.Tones[i].Phase += nominalPrototypePhase(f, fcNom)
	}
	for i := range out.Spurs {
		out.Spurs[i].Amp = in.Spurs[i].Amp * l.nominalResponseMag(out.Spurs[i].Freq)
	}
	// Gain tolerance contributes everywhere; cut-off tolerance
	// contributes d|H|/dfc · σfc / |H| ≈ 2(f/fc)^4/(1+(f/fc)^4) · σfc/fc
	// relative error — negligible deep in band, dominant near corner.
	relG := lnGainRelTol(l.Spec.GainDB)
	var worstFc float64
	for _, t := range in.Tones {
		r := math.Pow(t.Freq/fcNom, 4)
		rel := 2 * r / (1 + r) * l.Spec.CutoffHz.RelSigma()
		if rel > worstFc {
			worstFc = rel
		}
	}
	out.AmpAccuracy = tolerance.RSS(out.AmpAccuracy, relG, worstFc)
	// Cut-off spread also perturbs the phase: dφ/dfc·σfc, evaluated
	// at the worst tone by finite difference on the prototype phase.
	var worstPh float64
	for _, t := range in.Tones {
		d := math.Abs(nominalPrototypePhase(t.Freq, fcNom*(1+l.Spec.CutoffHz.RelSigma())) -
			nominalPrototypePhase(t.Freq, fcNom))
		if d > worstPh {
			worstPh = d
		}
	}
	out.PhaseAccuracy = tolerance.RSS(out.PhaseAccuracy, worstPh)
	out = out.AddDC(l.Spec.OffsetV.Nominal, l.Spec.OffsetV.Sigma)
	// The filter attenuates incoming noise too; in-band noise passes.
	out = out.AddNoise(l.Spec.OutputNoiseRMS)
	if l.Spec.ClockSpurV > 0 {
		out = out.AddSpur(l.Spec.ClockHz, l.Spec.ClockSpurV)
	}
	return out
}

// StopbandGainDB returns the instance gain at frequency f in dB —
// the Table 1 "stop-band gain" measurement target.
func (l *LowPass) StopbandGainDB(f float64) float64 {
	return 20 * math.Log10(l.ResponseMag(f))
}

// nominalPrototypePhase is the 2nd-order Butterworth phase at f for
// corner fc: −atan2(√2·(f/fc), 1−(f/fc)²), continuous through the
// corner.
func nominalPrototypePhase(f, fc float64) float64 {
	r := f / fc
	return -math.Atan2(math.Sqrt2*r, 1-r*r)
}

// transferPhase returns the phase of the realized biquad at frequency
// f when clocked at fs.
func (l *LowPass) transferPhase(f, fs float64) float64 {
	b0, b1, b2, a1, a2 := l.biquad(fs)
	w := 2 * math.Pi * f / fs
	z1re, z1im := math.Cos(-w), math.Sin(-w)
	z2re, z2im := math.Cos(-2*w), math.Sin(-2*w)
	numRe := b0 + b1*z1re + b2*z2re
	numIm := b1*z1im + b2*z2im
	denRe := 1 + a1*z1re + a2*z2re
	denIm := a1*z1im + a2*z2im
	return math.Atan2(numIm, numRe) - math.Atan2(denIm, denRe)
}

// GroupDelayAt returns the instance's group delay in seconds at
// frequency f when simulated at rate fs, computed numerically from
// the realized biquad's phase slope. Memoryless blocks (amp, mixer)
// contribute no group delay, so this is the analog path's total.
func (l *LowPass) GroupDelayAt(f, fs float64) float64 {
	df := fs * 1e-7
	p1 := l.transferPhase(f-df, fs)
	p2 := l.transferPhase(f+df, fs)
	d := p2 - p1
	// Unwrap a potential branch cut.
	for d > math.Pi {
		d -= 2 * math.Pi
	}
	for d < -math.Pi {
		d += 2 * math.Pi
	}
	return -d / (2 * math.Pi * 2 * df)
}
