package digital

import (
	"fmt"
	"math"

	"mstx/internal/dsp"
)

// DesignLowPassFIR designs a linear-phase low-pass FIR by the
// windowed-sinc method: taps coefficients, cutoff expressed as a
// fraction of the sample rate (0 < cutoff < 0.5), tapered by the given
// window. Coefficients are normalized to unity DC gain.
func DesignLowPassFIR(taps int, cutoff float64, w dsp.WindowType) ([]float64, error) {
	if taps < 1 {
		return nil, fmt.Errorf("digital: need at least one tap, got %d", taps)
	}
	if cutoff <= 0 || cutoff >= 0.5 {
		return nil, fmt.Errorf("digital: cutoff %g must be in (0, 0.5) of fs", cutoff)
	}
	win := dsp.Window(w, taps)
	h := make([]float64, taps)
	mid := float64(taps-1) / 2
	for i := range h {
		x := float64(i) - mid
		var sinc float64
		if x == 0 {
			sinc = 2 * cutoff
		} else {
			sinc = math.Sin(2*math.Pi*cutoff*x) / (math.Pi * x)
		}
		h[i] = sinc * win[i]
	}
	// Normalize DC gain to 1.
	var sum float64
	for _, v := range h {
		sum += v
	}
	if sum == 0 {
		return nil, fmt.Errorf("digital: degenerate design (zero DC gain)")
	}
	for i := range h {
		h[i] /= sum
	}
	return h, nil
}

// QuantizeCoeffs converts float coefficients to integers with the
// given number of fractional bits: c_int = round(c · 2^fracBits).
// It returns the integers and the actual scale factor 2^fracBits.
func QuantizeCoeffs(coeffs []float64, fracBits int) ([]int64, float64, error) {
	if fracBits < 1 || fracBits > 30 {
		return nil, 0, fmt.Errorf("digital: fracBits %d out of range [1,30]", fracBits)
	}
	scale := math.Ldexp(1, fracBits)
	out := make([]int64, len(coeffs))
	allZero := true
	for i, c := range coeffs {
		out[i] = int64(math.Round(c * scale))
		if out[i] != 0 {
			allZero = false
		}
	}
	if allZero && len(coeffs) > 0 {
		return nil, 0, fmt.Errorf("digital: all coefficients quantized to zero; increase fracBits")
	}
	return out, scale, nil
}

// FrequencyResponseMag returns |H(f)| of a float FIR at normalized
// frequency f (fraction of fs).
func FrequencyResponseMag(coeffs []float64, f float64) float64 {
	var re, im float64
	for n, c := range coeffs {
		ang := -2 * math.Pi * f * float64(n)
		re += c * math.Cos(ang)
		im += c * math.Sin(ang)
	}
	return math.Hypot(re, im)
}

// FilterFloat applies a float FIR to a record (zero initial state).
// This is the behavioural digital-filter model used by the path
// simulator when gate-level detail is not needed.
func FilterFloat(coeffs []float64, xs []float64) []float64 {
	return FilterFloatInto(make([]float64, len(xs)), coeffs, xs)
}

// FilterFloatInto is FilterFloat writing len(xs) outputs into dst,
// which must not overlap xs, and returning them.
func FilterFloatInto(dst, coeffs, xs []float64) []float64 {
	out := dst[:len(xs)]
	for n := range xs {
		var acc float64
		for i, c := range coeffs {
			if n-i < 0 {
				break
			}
			acc += c * xs[n-i]
		}
		out[n] = acc
	}
	return out
}

// QuantizeRecord converts a float record in [-1, 1) to width-bit
// signed integers at full scale, saturating out-of-range samples.
// It is the glue between the behavioural analog front end and the
// gate-level filter.
func QuantizeRecord(xs []float64, width int) []int64 {
	fs := math.Ldexp(1, width-1)
	out := make([]int64, len(xs))
	for i, v := range xs {
		out[i] = Saturate(int64(math.Round(v*fs)), width)
	}
	return out
}

// DequantizeRecord converts width-bit integers back to floats in
// [-1, 1), inverse of QuantizeRecord up to quantization error.
func DequantizeRecord(xs []int64, width int) []float64 {
	fs := math.Ldexp(1, width-1)
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v) / fs
	}
	return out
}
