// Package adc models the analog/digital interface modules of the
// paper's signal path: a Nyquist-rate quantizer with the static
// non-idealities Table 1 tests for (offset error, INL, DNL, plus gain
// error and input noise), and a first-order sigma-delta modulator
// with sinc decimation as the alternative interface module the paper's
// introduction mentions.
package adc

import (
	"fmt"
	"math"
	"math/rand"

	"mstx/internal/msignal"
	"mstx/internal/tolerance"
)

// Spec is the designer-facing ADC specification.
type Spec struct {
	// Name identifies the block.
	Name string
	// Bits is the resolution (2..30).
	Bits int
	// FullScaleV is the input full-scale amplitude: the converter
	// spans [-FullScaleV, +FullScaleV).
	FullScaleV float64
	// OffsetLSB is the offset error in LSB with process spread.
	OffsetLSB tolerance.Value
	// GainErrRel is the relative gain error with process spread
	// (0.01 = +1% steeper transfer).
	GainErrRel tolerance.Value
	// INLPeakLSB is the peak of the parabolic INL bow in LSB with
	// process spread (sign gives the bow direction).
	INLPeakLSB tolerance.Value
	// DNLSigmaLSB is the per-code DNL standard deviation in LSB; each
	// sampled device freezes its own code-level perturbation table.
	DNLSigmaLSB float64
	// NoiseRMSLSB is input-referred thermal noise in LSB.
	NoiseRMSLSB float64
}

// Validate checks the specification.
func (s Spec) Validate() error {
	if s.Bits < 2 || s.Bits > 30 {
		return fmt.Errorf("adc: bits %d out of range [2,30]", s.Bits)
	}
	if s.FullScaleV <= 0 {
		return fmt.Errorf("adc: full scale %g must be positive", s.FullScaleV)
	}
	return nil
}

// Build returns the nominal device (zero offset/gain/INL deviations
// beyond nominal, no DNL table).
func (s Spec) Build() (*ADC, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &ADC{
		Spec:       s,
		OffsetLSB:  s.OffsetLSB.Nominal,
		GainErrRel: s.GainErrRel.Nominal,
		INLPeakLSB: s.INLPeakLSB.Nominal,
	}, nil
}

// Sample returns a process-varied device, including a frozen DNL
// perturbation table drawn from DNLSigmaLSB.
func (s Spec) Sample(rng *rand.Rand) (*ADC, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	a := &ADC{
		Spec:       s,
		OffsetLSB:  s.OffsetLSB.Sample(rng),
		GainErrRel: s.GainErrRel.Sample(rng),
		INLPeakLSB: s.INLPeakLSB.Sample(rng),
	}
	if s.DNLSigmaLSB > 0 {
		n := 1 << uint(s.Bits)
		a.dnl = make([]float64, n)
		for i := range a.dnl {
			a.dnl[i] = rng.NormFloat64() * s.DNLSigmaLSB
		}
	}
	return a, nil
}

// ADC is a quantizer device instance.
type ADC struct {
	// Spec is the specification the device was built from.
	Spec Spec
	// OffsetLSB is the actual offset error, LSB.
	OffsetLSB float64
	// GainErrRel is the actual relative gain error.
	GainErrRel float64
	// INLPeakLSB is the actual INL bow peak, LSB.
	INLPeakLSB float64

	dnl []float64
}

// Name identifies the instance.
func (a *ADC) Name() string { return a.Spec.Name }

// LSB returns the voltage of one code step.
func (a *ADC) LSB() float64 {
	return 2 * a.Spec.FullScaleV / float64(int64(1)<<uint(a.Spec.Bits))
}

// CodeRange returns the inclusive [min, max] output codes.
func (a *ADC) CodeRange() (int64, int64) {
	half := int64(1) << uint(a.Spec.Bits-1)
	return -half, half - 1
}

// inlLSB evaluates the parabolic INL bow at normalized position
// u ∈ [-1, 1]: peak·(1 − u²).
func (a *ADC) inlLSB(u float64) float64 {
	return a.INLPeakLSB * (1 - u*u)
}

// Convert quantizes a voltage record into signed output codes,
// applying gain error, offset, INL bow, frozen DNL perturbations,
// input noise (when rng non-nil), and saturation.
func (a *ADC) Convert(x []float64, rng *rand.Rand) []int64 {
	return a.ConvertInto(make([]int64, len(x)), x, rng)
}

// ConvertInto is Convert writing len(x) codes into dst and returning
// them.
func (a *ADC) ConvertInto(dst []int64, x []float64, rng *rand.Rand) []int64 {
	lsb := a.LSB()
	minC, maxC := a.CodeRange()
	out := dst[:len(x)]
	for i, v := range x {
		val := v * (1 + a.GainErrRel) / lsb // in LSB units
		if rng != nil && a.Spec.NoiseRMSLSB > 0 {
			val += rng.NormFloat64() * a.Spec.NoiseRMSLSB
		}
		val += a.OffsetLSB
		u := v / a.Spec.FullScaleV
		if u > 1 {
			u = 1
		} else if u < -1 {
			u = -1
		}
		val += a.inlLSB(u)
		c := int64(math.Round(val))
		if a.dnl != nil {
			idx := c - minC
			if idx >= 0 && idx < int64(len(a.dnl)) {
				c = int64(math.Round(val + a.dnl[idx]))
			}
		}
		if c < minC {
			c = minC
		} else if c > maxC {
			c = maxC
		}
		out[i] = c
	}
	return out
}

// Process implements the analog Block shape: it converts and then
// reconstructs to volts (code·LSB), so an ADC can sit inside a
// float-domain block chain. The digital side of a path uses Convert
// directly.
func (a *ADC) Process(x []float64, fs float64, rng *rand.Rand) []float64 {
	codes := a.Convert(x, rng)
	lsb := a.LSB()
	out := make([]float64, len(codes))
	for i, c := range codes {
		out[i] = float64(c) * lsb
	}
	return out
}

// Propagate implements attribute propagation across the interface:
// amplitudes are preserved (unit nominal conversion gain in volts),
// quantization noise LSB/√12 plus the spec'd input noise accumulate,
// and the offset uncertainty grows by the offset spread.
func (a *ADC) Propagate(in msignal.Signal) msignal.Signal {
	lsb := a.LSB()
	out := in.ScaleWithTolerance(1, math.Abs(a.Spec.GainErrRel.Sigma))
	q := lsb / math.Sqrt(12)
	n := a.Spec.NoiseRMSLSB * lsb
	out = out.AddNoise(math.Sqrt(q*q + n*n))
	out = out.AddDC(a.Spec.OffsetLSB.Nominal*lsb, a.Spec.OffsetLSB.Sigma*lsb)
	return out
}

// IdealSNRdB returns the textbook quantization-limited SNR for a
// full-scale sine: 6.02·bits + 1.76 dB.
func (a *ADC) IdealSNRdB() float64 {
	return 6.02*float64(a.Spec.Bits) + 1.76
}

// MeasureINLDNL runs a code-density (histogram) test on the converter
// using a full-scale linear ramp of n samples and returns the INL and
// DNL profiles in LSB, indexed by code-minC. This is the standard
// ATE static-linearity measurement.
func (a *ADC) MeasureINLDNL(n int) (inl, dnl []float64) {
	minC, maxC := a.CodeRange()
	codes := int(maxC - minC + 1)
	hist := make([]int, codes)
	for i := 0; i < n; i++ {
		v := -a.Spec.FullScaleV + 2*a.Spec.FullScaleV*float64(i)/float64(n-1)
		c := a.Convert([]float64{v}, nil)[0]
		hist[c-minC]++
	}
	// Ideal count per code for a ramp is n/codes; exclude the end
	// codes (saturation buckets).
	ideal := float64(n) / float64(codes)
	dnl = make([]float64, codes)
	inl = make([]float64, codes)
	acc := 0.0
	for c := 1; c < codes-1; c++ {
		dnl[c] = float64(hist[c])/ideal - 1
		acc += dnl[c]
		inl[c] = acc
	}
	return inl, dnl
}

// MeasureINLDNLSine runs the sine-wave code-density test: a slightly
// over-ranged coherent sine exercises every code; the histogram is
// corrected by the arcsine probability density of a sine's residence
// time per code. This is the linearity measurement a functional path
// *can* deliver (a pure ramp cannot pass an AC-coupled front end).
// n is the record length; the stimulus over-drives full scale by 5%.
func (a *ADC) MeasureINLDNLSine(n int) (inl, dnl []float64) {
	minC, maxC := a.CodeRange()
	codes := int(maxC - minC + 1)
	hist := make([]int, codes)
	amp := 1.05 * a.Spec.FullScaleV
	// A frequency mutually prime with n covers phases uniformly.
	for i := 0; i < n; i++ {
		v := amp * math.Sin(2*math.Pi*float64(i)*179.0/float64(n))
		c := a.Convert([]float64{v}, nil)[0]
		hist[c-minC]++
	}
	// Ideal residence probability of code c for a sine of amplitude
	// amp: p(c) = (asin(v2/amp) − asin(v1/amp))/π over the code's
	// voltage span [v1, v2].
	lsb := a.LSB()
	ideal := make([]float64, codes)
	for c := 0; c < codes; c++ {
		v1 := (float64(c+int(minC)) - 0.5) * lsb
		v2 := v1 + lsb
		ideal[c] = (clampAsin(v2/amp) - clampAsin(v1/amp)) / math.Pi
	}
	dnl = make([]float64, codes)
	inl = make([]float64, codes)
	acc := 0.0
	total := float64(n)
	for c := 1; c < codes-1; c++ {
		if ideal[c] <= 0 {
			continue
		}
		dnl[c] = float64(hist[c])/(total*ideal[c]) - 1
		acc += dnl[c]
		inl[c] = acc
	}
	return inl, dnl
}

func clampAsin(x float64) float64 {
	if x > 1 {
		x = 1
	} else if x < -1 {
		x = -1
	}
	return math.Asin(x)
}

// PeakAbs returns the largest magnitude in a profile.
func PeakAbs(profile []float64) float64 {
	var p float64
	for _, v := range profile {
		if a := math.Abs(v); a > p {
			p = a
		}
	}
	return p
}
