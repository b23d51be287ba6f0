package dsp

import (
	"math/rand"
	"testing"
)

func TestSpectrumScratchMatchesPowerSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 64, 100, 1024} {
		for _, w := range []WindowType{Rectangular, Hann, BlackmanHarris} {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			want, err := PowerSpectrum(x, 1e6, w)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := NewSpectrumScratch(n, w)
			if err != nil {
				t.Fatal(err)
			}
			// Run twice: the second pass exercises buffer reuse.
			for pass := 0; pass < 2; pass++ {
				got, err := sc.PowerSpectrum(x, 1e6)
				if err != nil {
					t.Fatal(err)
				}
				if got.NFFT != want.NFFT || got.SampleRate != want.SampleRate ||
					got.Window != want.Window ||
					got.ProcessingGain != want.ProcessingGain || got.ENBW != want.ENBW {
					t.Fatalf("n=%d w=%v pass %d: header mismatch %+v vs %+v",
						n, w, pass, got, want)
				}
				if len(got.Power) != len(want.Power) {
					t.Fatalf("n=%d w=%v: %d bins, want %d", n, w, len(got.Power), len(want.Power))
				}
				for k := range want.Power {
					if got.Power[k] != want.Power[k] {
						t.Fatalf("n=%d w=%v pass %d bin %d: %g != %g (must be bit-identical)",
							n, w, pass, k, got.Power[k], want.Power[k])
					}
				}
			}
		}
	}
}

func TestSpectrumScratchValidation(t *testing.T) {
	if _, err := NewSpectrumScratch(0, Hann); err == nil {
		t.Error("zero length accepted")
	}
	sc, err := NewSpectrumScratch(64, Hann)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Len() != 64 {
		t.Errorf("Len = %d, want 64", sc.Len())
	}
	if _, err := sc.PowerSpectrum(make([]float64, 65), 1e6); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := sc.PowerSpectrum(make([]float64, 64), 0); err == nil {
		t.Error("zero sample rate accepted")
	}
}

func TestSpectrumScratchAllocFree(t *testing.T) {
	sc, err := NewSpectrumScratch(1024, BlackmanHarris)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 1024)
	for i := range x {
		x[i] = float64(i % 17)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := sc.PowerSpectrum(x, 1e6); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("scratch PowerSpectrum allocates %.1f objects per call, want 0", allocs)
	}
}
