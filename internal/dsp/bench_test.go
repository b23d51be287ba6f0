package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// The Allocating/Scratch benchmark pairs below are the dsp half of the
// recorded perf trajectory (BENCH_dsp.json, written by scripts/check.sh
// via cmd/benchrecord). Each pair runs the same measurement through the
// package-level function and its scratch-backed variant; the scratch
// side must report 0 allocs/op, and the regression gate fails the
// check run if ns/op drifts >15% or any allocs/op grows against the
// recorded baseline.

func benchRecord(n int) []float64 {
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func benchScratch(b *testing.B, n int, w WindowType) *SpectrumScratch {
	b.Helper()
	sc, err := NewSpectrumScratch(n, w)
	if err != nil {
		b.Fatal(err)
	}
	return sc
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
	sc := benchScratch(b, 1024, BlackmanHarris)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.PowerSpectrum(x, 1e6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowerSpectrumRealScratch1024 is the fast real-input path on
// the same record as BenchmarkPowerSpectrumScratch1024, rounded to
// integer codes (its input type): one 512-point transform plus the
// split pass, window applied while packing.
func BenchmarkPowerSpectrumRealScratch1024(b *testing.B) {
	x := benchRecord(1024)
	rec := make([]int64, len(x))
	for i, v := range x {
		rec[i] = int64(math.Round(v * 1000))
	}
	sc, err := NewRealSpectrumScratch(1024, BlackmanHarris)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.PowerSpectrum(rec, 1e6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWelchAllocating(b *testing.B) {
	x := benchRecord(8192)
	opts := WelchOptions{SegmentLength: 1024, Overlap: 0.5, Window: Hann}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Welch(x, 1e6, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWelchScratch(b *testing.B) {
	x := benchRecord(8192)
	opts := WelchOptions{SegmentLength: 1024, Overlap: 0.5, Window: Hann}
	sc := benchScratch(b, 1024, Hann)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Welch(x, 1e6, opts); err != nil {
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

func BenchmarkAnalyzeScratch4096(b *testing.B) {
	n := 4096
	fs := 1e6
	f1 := CoherentBin(fs, n, 401)
	f2 := CoherentBin(fs, n, 431)
	x := makeTwoTone(n, fs, f1, f2, 1, 1, 0.001, 3)
	tones := []float64{f1, f2}
	sc := benchScratch(b, n, Hann)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Analyze(x, fs, tones, AnalyzeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNoiseFloorAllocating(b *testing.B) {
	x := benchRecord(4096)
	s, err := PowerSpectrum(x, 1e6, Hann)
	if err != nil {
		b.Fatal(err)
	}
	exclude := map[int]bool{0: true, 401: true, 431: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.NoiseFloor(exclude)
	}
}

func BenchmarkNoiseFloorScratch(b *testing.B) {
	x := benchRecord(4096)
	s, err := PowerSpectrum(x, 1e6, Hann)
	if err != nil {
		b.Fatal(err)
	}
	sc := benchScratch(b, 4096, Hann)
	exclude := map[int]bool{0: true, 401: true, 431: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.NoiseFloor(s, exclude)
	}
}

func BenchmarkCoherentAverageAllocating(b *testing.B) {
	x := benchRecord(64 * 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CoherentAverage(x, 256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoherentAverageScratch(b *testing.B) {
	x := benchRecord(64 * 256)
	sc := benchScratch(b, 256, Rectangular)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.CoherentAverage(x); err != nil {
			b.Fatal(err)
		}
	}
}
