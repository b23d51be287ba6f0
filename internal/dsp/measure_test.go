package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// makeTwoTone builds a two-tone signal plus Gaussian noise.
func makeTwoTone(n int, fs, f1, f2, a1, a2, noiseSigma float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / fs
		x[i] = a1*math.Cos(2*math.Pi*f1*ti) + a2*math.Cos(2*math.Pi*f2*ti)
		if noiseSigma > 0 {
			x[i] += rng.NormFloat64() * noiseSigma
		}
	}
	return x
}

func TestAnalyzeCleanTone(t *testing.T) {
	n := 4096
	fs := 1e6
	f := CoherentBin(fs, n, 129)
	x := makeTone(n, fs, f, 1.0, 0, 0)
	a, err := Analyze(x, fs, []float64{f}, Rectangular, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.SignalPower-0.5) > 1e-9 {
		t.Errorf("signal power = %g, want 0.5", a.SignalPower)
	}
	if a.SNR < 250 {
		t.Errorf("clean tone SNR = %g dB, want essentially infinite (>250)", a.SNR)
	}
	if len(a.Fundamentals) != 1 || a.Fundamentals[0].Bin != 129 {
		t.Errorf("fundamental mismeasured: %+v", a.Fundamentals)
	}
}

func TestAnalyzeSNRAccuracy(t *testing.T) {
	n := 8192
	fs := 1e6
	f := CoherentBin(fs, n, 517)
	amp := 1.0
	sigma := 0.01 // SNR = 10log10((A²/2)/σ²) = 10log10(5000) ≈ 37 dB
	x := makeTwoTone(n, fs, f, 0, amp, 0, sigma, 42)
	a, err := Analyze(x, fs, []float64{f}, Rectangular, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := DB(amp * amp / 2 / (sigma * sigma))
	if math.Abs(a.SNR-want) > 1.0 {
		t.Errorf("SNR = %g dB, want %g ± 1 dB", a.SNR, want)
	}
}

func TestAnalyzeTHD(t *testing.T) {
	n := 4096
	fs := 1e6
	f := CoherentBin(fs, n, 101)
	x := make([]float64, n)
	// Fundamental plus -40 dB 2nd and -46 dB 3rd harmonics.
	h2 := FromAmplitudeDB(-40)
	h3 := FromAmplitudeDB(-46)
	for i := range x {
		ti := float64(i) / fs
		x[i] = math.Cos(2*math.Pi*f*ti) + h2*math.Cos(2*math.Pi*2*f*ti) + h3*math.Cos(2*math.Pi*3*f*ti)
	}
	a, err := Analyze(x, fs, []float64{f}, Rectangular, AnalyzeOptions{Harmonics: 5})
	if err != nil {
		t.Fatal(err)
	}
	wantTHD := DB(h2*h2 + h3*h3) // relative to unit fundamental power ratio
	if math.Abs(a.THD-wantTHD) > 0.2 {
		t.Errorf("THD = %g dB, want %g", a.THD, wantTHD)
	}
	if len(a.Harmonics) == 0 {
		t.Fatal("no harmonics measured")
	}
	if a.SFDR < 39 || a.SFDR > 41 {
		t.Errorf("SFDR = %g dB, want ~40", a.SFDR)
	}
}

func TestAnalyzeENOB(t *testing.T) {
	// Quantize an on-bin tone to 8 bits; ENOB should be close to 8.
	n := 8192
	fs := 1e6
	f := CoherentBin(fs, n, 1021)
	bitsN := 8
	q := 2.0 / float64(int(1)<<bitsN)
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / fs
		v := math.Cos(2 * math.Pi * f * ti)
		x[i] = math.Round(v/q) * q
	}
	a, err := Analyze(x, fs, []float64{f}, Rectangular, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.ENOB-float64(bitsN)) > 0.7 {
		t.Errorf("ENOB = %g, want ~%d", a.ENOB, bitsN)
	}
}

func TestAnalyzeTwoToneKeepsIntermodsAsNoise(t *testing.T) {
	n := 4096
	fs := 1e6
	f1 := CoherentBin(fs, n, 401)
	f2 := CoherentBin(fs, n, 431)
	x := makeTwoTone(n, fs, f1, f2, 1, 1, 0, 1)
	// Add an IM3 product at 2f1-f2.
	im := FromAmplitudeDB(-50)
	fim := 2*f1 - f2
	for i := range x {
		ti := float64(i) / fs
		x[i] += im * math.Cos(2*math.Pi*fim*ti)
	}
	a, err := Analyze(x, fs, []float64{f1, f2}, Rectangular, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.SignalPower < 0.99 || a.SignalPower > 1.01 {
		t.Errorf("two-tone signal power = %g, want ~1.0", a.SignalPower)
	}
	// The IM3 product must show up as the worst spur.
	if a.WorstSpur.Bin != 371 { // 2·401-431
		t.Errorf("worst spur bin = %d, want 371", a.WorstSpur.Bin)
	}
	imMeasured := MeasureTone(mustSpectrum(t, x, fs), fim)
	if math.Abs(AmplitudeDB(imMeasured.Amplitude)-(-50)) > 0.5 {
		t.Errorf("IM3 measured at %g dB, want -50", AmplitudeDB(imMeasured.Amplitude))
	}
}

func mustSpectrum(t *testing.T, x []float64, fs float64) *Spectrum {
	t.Helper()
	s, err := PowerSpectrum(x, fs, Rectangular)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAnalyzeRequiresTones(t *testing.T) {
	if _, err := Analyze([]float64{1, 2}, 10, nil, Rectangular, AnalyzeOptions{}); err == nil {
		t.Fatal("Analyze accepted empty tone list")
	}
	if _, err := AnalyzeSpectrum(&Spectrum{}, nil, AnalyzeOptions{}); err == nil {
		t.Fatal("AnalyzeSpectrum accepted empty tone list")
	}
}

func TestAnalyzeDCExclusion(t *testing.T) {
	n := 2048
	fs := 1e6
	f := CoherentBin(fs, n, 333)
	x := makeTone(n, fs, f, 1, 0, 0.5) // big DC offset
	withExcl, err := Analyze(x, fs, []float64{f}, Rectangular, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	withoutExcl, err := Analyze(x, fs, []float64{f}, Rectangular, AnalyzeOptions{SkipDCExclusion: true})
	if err != nil {
		t.Fatal(err)
	}
	if withExcl.SNR <= withoutExcl.SNR {
		t.Errorf("DC exclusion should raise SNR: %g vs %g", withExcl.SNR, withoutExcl.SNR)
	}
}

func TestRMSAndMeanAndPeak(t *testing.T) {
	x := []float64{3, -4, 3, -4}
	if got := RMS(x); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMS = %g", got)
	}
	if got := Mean(x); math.Abs(got-(-0.5)) > 1e-12 {
		t.Errorf("Mean = %g", got)
	}
	if RMS(nil) != 0 || Mean(nil) != 0 {
		t.Error("empty-slice stats should be 0")
	}
}

func TestCoherentBin(t *testing.T) {
	fs := 44100.0
	f := CoherentBin(fs, 4096, 127)
	cyc := f * 4096 / fs
	if math.Abs(cyc-127) > 1e-9 {
		t.Errorf("CoherentBin gives %g cycles, want 127", cyc)
	}
}

func TestPhaseAt(t *testing.T) {
	n := 256
	phase := 0.7
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2*math.Pi*8*float64(i)/float64(n) + phase)
	}
	// X[k] of cos(wn+φ) is (N/2)e^{jφ} at k=8.
	got := PhaseAt(x, 8)
	if math.Abs(got-phase) > 1e-9 {
		t.Errorf("PhaseAt = %g, want %g", got, phase)
	}
}

func TestMeasureToneWindowedSpread(t *testing.T) {
	n := 1024
	fs := 1e6
	f := CoherentBin(fs, n, 100)
	x := makeTone(n, fs, f, 1, 0, 0)
	s, err := PowerSpectrum(x, fs, Hann)
	if err != nil {
		t.Fatal(err)
	}
	m := MeasureTone(s, f)
	if math.Abs(m.Amplitude-1) > 0.02 {
		t.Errorf("windowed tone amplitude = %g, want ~1", m.Amplitude)
	}
}

// TestMeasureToneENBWCorrection cross-checks the skirt overcount
// correction on a synthetic on-bin tone: summing the ±3-bin leakage
// skirt overcounts a unit tone's power by the window's equivalent
// noise bandwidth, and dividing by ENBW must recover A²/2.
func TestMeasureToneENBWCorrection(t *testing.T) {
	n := 1024
	fs := 1e6
	f := CoherentBin(fs, n, 100)
	x := makeTone(n, fs, f, 1, 0, 0)
	for _, w := range []WindowType{Hann, Hamming, Blackman, BlackmanHarris} {
		s, err := PowerSpectrum(x, fs, w)
		if err != nil {
			t.Fatal(err)
		}
		raw := s.TonePower(f, defaultToneSpread)
		if r := raw / 0.5; math.Abs(r-s.ENBW)/s.ENBW > 0.01 {
			t.Errorf("%v: skirt sum overcounts by %g, want ENBW %g", w, r, s.ENBW)
		}
		m := MeasureTone(s, f)
		if math.Abs(m.Power-0.5) > 0.005 {
			t.Errorf("%v: corrected tone power = %g, want 0.5", w, m.Power)
		}
		if math.Abs(m.Amplitude-1) > 0.005 {
			t.Errorf("%v: corrected amplitude = %g, want 1", w, m.Amplitude)
		}
	}
}

func TestResolveSpread(t *testing.T) {
	cases := []struct {
		spread int
		w      WindowType
		want   int
	}{
		{0, Rectangular, 0},
		{0, Hann, defaultToneSpread},
		{0, BlackmanHarris, defaultToneSpread},
		{ToneSpreadNone, Hann, 0},
		{ToneSpreadNone, Rectangular, 0},
		{2, Hann, 2},
		{2, Rectangular, 2},
	}
	for _, c := range cases {
		opts := AnalyzeOptions{ToneSpread: c.spread}
		if got := opts.resolveSpread(c.w); got != c.want {
			t.Errorf("resolveSpread(ToneSpread=%d, %v) = %d, want %d", c.spread, c.w, got, c.want)
		}
	}
}

// TestToneSpreadSentinelCompat pins that introducing ToneSpreadNone
// changed no existing caller's results: the zero value still means
// "window default", so opts{} is bit-identical to an explicit
// ToneSpread of 3 under a windowed spectrum and to ToneSpreadNone
// under a rectangular one.
func TestToneSpreadSentinelCompat(t *testing.T) {
	n := 2048
	fs := 1e6
	f1 := CoherentBin(fs, n, 101)
	f2 := CoherentBin(fs, n, 257)
	x := makeTwoTone(n, fs, f1, f2, 1, 0.3, 0.01, 17)
	tones := []float64{f1, f2}

	analyze := func(w WindowType, opts AnalyzeOptions) *SpectralAnalysis {
		a, err := Analyze(x, fs, tones, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	// Windowed: unset == explicit default spread.
	def := analyze(Hann, AnalyzeOptions{})
	compareAnalyses(t, "hann unset vs explicit 3",
		analyze(Hann, AnalyzeOptions{ToneSpread: defaultToneSpread}), def)

	// Rectangular: unset == sentinel (both are zero-spread).
	rectDef := analyze(Rectangular, AnalyzeOptions{})
	compareAnalyses(t, "rect unset vs ToneSpreadNone",
		analyze(Rectangular, AnalyzeOptions{ToneSpread: ToneSpreadNone}), rectDef)

	// The sentinel under a window means exactly "nearest bin, no ENBW
	// correction" — something the zero value could not express before.
	s, err := PowerSpectrum(x, fs, Hann)
	if err != nil {
		t.Fatal(err)
	}
	none, err := AnalyzeSpectrum(s, tones, AnalyzeOptions{ToneSpread: ToneSpreadNone})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := none.Fundamentals[0].Power, s.Power[s.Bin(f1)]; got != want {
		t.Errorf("sentinel fundamental power = %g, want single bin %g", got, want)
	}
	if none.Fundamentals[0].Power >= def.Fundamentals[0].Power {
		t.Error("zero-spread windowed measurement should undercount the skirted one")
	}
}

func BenchmarkAnalyze8192(b *testing.B) {
	n := 8192
	fs := 1e6
	f1 := CoherentBin(fs, n, 401)
	f2 := CoherentBin(fs, n, 431)
	x := makeTwoTone(n, fs, f1, f2, 1, 1, 0.001, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(x, fs, []float64{f1, f2}, Rectangular, AnalyzeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
