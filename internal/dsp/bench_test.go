package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// The benchmarks below, with BenchmarkFFTPlanned4096, are the dsp half
// of the recorded perf trajectory (BENCH_dsp.json, written by
// scripts/check.sh via cmd/benchrecord). The PowerSpectrum pair runs
// the same measurement through the package-level function and its
// scratch-backed variant; the scratch side must report 0 allocs/op, and
// the regression gate fails the check run if ns/op drifts beyond its
// bound or any allocs/op grows against the recorded baseline.

func benchRecord(n int) []float64 {
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func BenchmarkPowerSpectrumAllocating1024(b *testing.B) {
	x := benchRecord(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PowerSpectrum(x, 1e6, BlackmanHarris); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPowerSpectrumScratch1024(b *testing.B) {
	x := benchRecord(1024)
	sc, err := NewSpectrumScratch(1024, BlackmanHarris)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.PowerSpectrum(x, 1e6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordScratchSpectrum1024 is the fast real-input spectrum
// on the same record as BenchmarkPowerSpectrumScratch1024, rounded to
// integer codes (its input type): Load windows the codes, and Spectrum
// runs one 512-point transform plus the split pass.
func BenchmarkRecordScratchSpectrum1024(b *testing.B) {
	x := benchRecord(1024)
	rec := make([]int64, len(x))
	for i, v := range x {
		rec[i] = int64(math.Round(v * 1000))
	}
	sc, err := NewRecordScratch(1024, BlackmanHarris, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Load(rec, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := sc.Spectrum(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeAllocating4096(b *testing.B) {
	n := 4096
	fs := 1e6
	f1 := CoherentBin(fs, n, 401)
	f2 := CoherentBin(fs, n, 431)
	x := makeTwoTone(n, fs, f1, f2, 1, 1, 0.001, 3)
	tones := []float64{f1, f2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(x, fs, tones, Hann, AnalyzeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
