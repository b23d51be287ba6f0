package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// realSpectrumInputs returns the named code records the fast path is
// checked on at length n: full-scale two-tone, random codes, impulses,
// DC, Nyquist and all-zero.
func realSpectrumInputs(n int) map[string][]int64 {
	const full = 1<<19 - 1
	rng := rand.New(rand.NewSource(int64(n)))
	in := map[string][]int64{}
	fill := func(name string, f func(i int) int64) {
		rec := make([]int64, n)
		for i := range rec {
			rec[i] = f(i)
		}
		in[name] = rec
	}
	fill("tones", func(i int) int64 {
		ph := 2 * math.Pi * float64(i) / float64(n)
		return int64(math.Round(full / 2 * (math.Cos(3*ph) + math.Sin(float64(n/3)*ph+0.4))))
	})
	fill("random", func(int) int64 { return rng.Int63n(2*full+1) - full })
	fill("impulse0", func(i int) int64 {
		if i == 0 {
			return full
		}
		return 0
	})
	fill("impulseMid", func(i int) int64 {
		if i == n/2 {
			return -full
		}
		return 0
	})
	fill("dc", func(int) int64 { return full })
	fill("nyquist", func(i int) int64 { return full * int64(1-2*(i&1)) })
	fill("zero", func(int) int64 { return 0 })
	return in
}

// TestRealSpectrumWithinBound compares the fast real-input spectrum
// against SpectrumScratch.PowerSpectrum on the same codes, for every
// power-of-two length 4…8192 and some that zero-pad, under three
// windows: every bin must differ by no more than ErrorBound. The worst
// observed error is logged as a fraction of the bound.
func TestRealSpectrumWithinBound(t *testing.T) {
	var lengths []int
	for n := 4; n <= 8192; n *= 2 {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 1, 2, 3, 5, 100, 1000, 3000)
	worst := 0.0
	for _, w := range []WindowType{BlackmanHarris, Rectangular, Hann} {
		for _, n := range lengths {
			ref, err := NewSpectrumScratch(n, w)
			fast, ferr := NewRealSpectrumScratch(n, w)
			if err != nil || ferr != nil {
				// Hann at n ≤ 2 has zero coherent gain: both refuse.
				if err == nil || ferr == nil {
					t.Fatalf("%v n=%d: reference error %v, fast error %v", w, n, err, ferr)
				}
				continue
			}
			x := make([]float64, n)
			for name, rec := range realSpectrumInputs(n) {
				for i, v := range rec {
					x[i] = float64(v)
				}
				want, err := ref.PowerSpectrum(x, 1e6)
				if err != nil {
					t.Fatal(err)
				}
				got, err := fast.PowerSpectrum(rec, 1e6)
				if err != nil {
					t.Fatal(err)
				}
				if got.NFFT != want.NFFT || len(got.Power) != len(want.Power) ||
					got.ProcessingGain != want.ProcessingGain || got.ENBW != want.ENBW ||
					got.SampleRate != want.SampleRate || got.Window != want.Window {
					t.Fatalf("%v n=%d %s: spectrum header %+v, reference %+v", w, n, name, got, want)
				}
				bound := fast.ErrorBound()
				for k := range want.Power {
					d := math.Abs(got.Power[k] - want.Power[k])
					if d > bound {
						t.Fatalf("%v n=%d %s bin %d: |fast-ref| = %g > bound %g (fast %g, ref %g)",
							w, n, name, k, d, bound, got.Power[k], want.Power[k])
					}
					if bound > 0 {
						worst = max(worst, d/bound)
					}
				}
			}
		}
	}
	t.Logf("worst per-bin |fast-ref| / ErrorBound = %.3g", worst)
}

// TestRealSpectrumBoundScale pins the size of the bound: a few 1e-13
// of the normalized windowed energy at 1024 points, growing with
// log2 NFFT.
func TestRealSpectrumBoundScale(t *testing.T) {
	prev := 0.0
	for n := 2; n <= 1<<16; n *= 2 {
		rel := realBound(n)
		if rel <= prev {
			t.Fatalf("realBound(%d) = %g does not grow past %g", n, rel, prev)
		}
		prev = rel
	}
	if rel := realBound(1024); rel < 1e-14 || rel > 1e-12 {
		t.Errorf("realBound(1024) = %g, want a few 1e-13", rel)
	}
}

// TestRealSpectrumScratchZeroAllocs pins the fast path's steady state:
// once built, a spectrum allocates nothing.
func TestRealSpectrumScratchZeroAllocs(t *testing.T) {
	rec := realSpectrumInputs(1024)["random"]
	sc, err := NewRealSpectrumScratch(1024, BlackmanHarris)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() {
		if _, err := sc.PowerSpectrum(rec, 1e6); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("RealSpectrumScratch.PowerSpectrum: %v allocs per run, want 0", a)
	}
}

func TestRealSpectrumScratchValidation(t *testing.T) {
	if _, err := NewRealSpectrumScratch(0, Hann); err == nil {
		t.Error("zero length accepted")
	}
	sc, err := NewRealSpectrumScratch(8, Hann)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.PowerSpectrum(make([]int64, 7), 1e6); err == nil {
		t.Error("short record accepted")
	}
	if _, err := sc.PowerSpectrum(make([]int64, 8), 0); err == nil {
		t.Error("zero sample rate accepted")
	}
}
