package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// makeTone builds n samples of amplitude·cos(2πf·t + phase) + dc at fs.
func makeTone(n int, fs, f, amplitude, phase, dc float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) / fs
		x[i] = amplitude*math.Cos(2*math.Pi*f*ti+phase) + dc
	}
	return x
}

func TestPowerSpectrumCoherentTone(t *testing.T) {
	n := 1024
	fs := 1e6
	f := CoherentBin(fs, n, 37)
	amp := 0.8
	x := makeTone(n, fs, f, amp, 0.3, 0)
	s, err := PowerSpectrum(x, fs, Rectangular)
	if err != nil {
		t.Fatal(err)
	}
	k := s.Bin(f)
	if k != 37 {
		t.Fatalf("tone bin = %d, want 37", k)
	}
	want := amp * amp / 2
	if math.Abs(s.Power[k]-want) > 1e-9 {
		t.Fatalf("tone power = %g, want %g", s.Power[k], want)
	}
	// Other bins must be essentially empty.
	for i, p := range s.Power {
		if i != k && p > 1e-18 {
			t.Fatalf("leakage at bin %d: %g", i, p)
		}
	}
}

func TestPowerSpectrumDC(t *testing.T) {
	n := 256
	fs := 1000.0
	x := makeTone(n, fs, CoherentBin(fs, n, 5), 0.1, 0, 0.25)
	s, err := PowerSpectrum(x, fs, Rectangular)
	if err != nil {
		t.Fatal(err)
	}
	// DC bin carries dc² (single copy, no folding factor).
	if math.Abs(s.Power[0]-0.0625) > 1e-12 {
		t.Fatalf("DC power = %g, want 0.0625", s.Power[0])
	}
}

func TestPowerSpectrumWindowedToneAmplitude(t *testing.T) {
	// With a non-rectangular window and coherent gain correction, the
	// summed tone power over the leakage skirt must still recover the
	// tone amplitude within a few percent.
	n := 1024
	fs := 48000.0
	f := CoherentBin(fs, n, 101)
	amp := 1.3
	x := makeTone(n, fs, f, amp, 1.1, 0)
	for _, w := range []WindowType{Hann, Hamming, Blackman, BlackmanHarris} {
		s, err := PowerSpectrum(x, fs, w)
		if err != nil {
			t.Fatal(err)
		}
		m := MeasureTone(s, f)
		if math.Abs(m.Amplitude-amp)/amp > 0.02 {
			t.Errorf("%v: measured amplitude %g, want %g", w, m.Amplitude, amp)
		}
	}
}

func TestPowerSpectrumErrors(t *testing.T) {
	if _, err := PowerSpectrum(nil, 1e6, Rectangular); err == nil {
		t.Error("empty signal accepted")
	}
	if _, err := PowerSpectrum([]float64{1}, 0, Rectangular); err == nil {
		t.Error("zero sample rate accepted")
	}
	if _, err := PowerSpectrum([]float64{1}, -5, Rectangular); err == nil {
		t.Error("negative sample rate accepted")
	}
}

func TestParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 512
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		s, err := PowerSpectrum(x, 1e6, Rectangular)
		if err != nil {
			return false
		}
		var ms float64
		for _, v := range x {
			ms += v * v
		}
		ms /= float64(n)
		var total float64
		for _, p := range s.Power {
			total += p
		}
		return math.Abs(total-ms) < 1e-9*math.Max(1, ms)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAliasFrequency(t *testing.T) {
	fs := 100.0
	cases := []struct{ in, want float64 }{
		{10, 10}, {50, 50}, {60, 40}, {90, 10}, {100, 0}, {110, 10}, {160, 40}, {-10, 10},
	}
	for _, c := range cases {
		if got := AliasFrequency(c.in, fs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("AliasFrequency(%g) = %g, want %g", c.in, got, c.want)
		}
	}
	if got := AliasFrequency(42, 0); got != 42 {
		t.Errorf("AliasFrequency with fs=0 = %g, want passthrough", got)
	}
}

func TestBinClampsAndAliases(t *testing.T) {
	n := 64
	fs := 6400.0
	x := make([]float64, n)
	x[0] = 1
	s, err := PowerSpectrum(x, fs, Rectangular)
	if err != nil {
		t.Fatal(err)
	}
	if k := s.Bin(0); k != 0 {
		t.Errorf("Bin(0) = %d", k)
	}
	if k := s.Bin(fs / 2); k != n/2 {
		t.Errorf("Bin(Nyquist) = %d, want %d", k, n/2)
	}
	// Above Nyquist aliases down.
	if k := s.Bin(fs/2 + 100); k != s.Bin(fs/2-100) {
		t.Errorf("aliasing mismatch: %d vs %d", k, s.Bin(fs/2-100))
	}
}

func TestPeakBin(t *testing.T) {
	n := 256
	fs := 256.0
	x := makeTone(n, fs, CoherentBin(fs, n, 40), 1, 0, 10) // huge DC
	s, err := PowerSpectrum(x, fs, Rectangular)
	if err != nil {
		t.Fatal(err)
	}
	if k := s.PeakBin(0, len(s.Power)-1); k != 40 {
		t.Errorf("PeakBin skipping DC = %d, want 40", k)
	}
	if k := s.PeakBin(-5, 10000); k != 40 {
		t.Errorf("PeakBin with clamped range = %d, want 40", k)
	}
}

func TestNoiseFloorMedian(t *testing.T) {
	n := 512
	fs := 512.0
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, n)
	sigma := 0.01
	for i := range x {
		x[i] = rng.NormFloat64() * sigma
	}
	tone := makeTone(n, fs, CoherentBin(fs, n, 50), 1, 0, 0)
	for i := range x {
		x[i] += tone[i]
	}
	s, err := PowerSpectrum(x, fs, Rectangular)
	if err != nil {
		t.Fatal(err)
	}
	floorWithTone := s.NoiseFloor(nil)
	floorExcl := s.NoiseFloor(map[int]bool{50: true})
	if floorExcl > floorWithTone+1e-15 {
		t.Errorf("excluding the tone raised the floor: %g > %g", floorExcl, floorWithTone)
	}
	// The median floor should be near sigma²/N per bin (single-sided
	// doubling only redistributes; total noise power is sigma²).
	perBin := sigma * sigma / float64(n/2)
	if floorExcl <= 0 || floorExcl > perBin*20 || floorExcl < perBin/20 {
		t.Errorf("noise floor %g implausible vs per-bin %g", floorExcl, perBin)
	}
}

func TestNoiseFloorAllExcluded(t *testing.T) {
	s := &Spectrum{Power: []float64{1, 2}, SampleRate: 10, NFFT: 2}
	if f := s.NoiseFloor(map[int]bool{0: true, 1: true}); f != 0 {
		t.Errorf("NoiseFloor all-excluded = %g, want 0", f)
	}
}

func TestDBConversions(t *testing.T) {
	if got := DB(100); math.Abs(got-20) > 1e-12 {
		t.Errorf("DB(100) = %g", got)
	}
	if !math.IsInf(DB(0), -1) || !math.IsInf(DB(-1), -1) {
		t.Error("DB of non-positive should be -inf")
	}
	if got := FromDB(30); math.Abs(got-1000) > 1e-9 {
		t.Errorf("FromDB(30) = %g", got)
	}
	if got := AmplitudeDB(10); math.Abs(got-20) > 1e-12 {
		t.Errorf("AmplitudeDB(10) = %g", got)
	}
	if !math.IsInf(AmplitudeDB(0), -1) {
		t.Error("AmplitudeDB(0) should be -inf")
	}
	if got := FromAmplitudeDB(40); math.Abs(got-100) > 1e-9 {
		t.Errorf("FromAmplitudeDB(40) = %g", got)
	}
}

func TestDBRoundTripProperty(t *testing.T) {
	f := func(v float64) bool {
		p := math.Abs(v) + 1e-12
		return math.Abs(FromDB(DB(p))-p) < 1e-9*p &&
			math.Abs(FromAmplitudeDB(AmplitudeDB(p))-p) < 1e-9*p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDBmConversions(t *testing.T) {
	if got := DBm(1); math.Abs(got-30) > 1e-12 {
		t.Errorf("DBm(1W) = %g, want 30", got)
	}
	if got := DBm(0.001); math.Abs(got) > 1e-9 {
		t.Errorf("DBm(1mW) = %g, want 0", got)
	}
	if !math.IsInf(DBm(0), -1) {
		t.Error("DBm(0) should be -inf")
	}
	if got := FromDBm(0); math.Abs(got-0.001) > 1e-12 {
		t.Errorf("FromDBm(0) = %g, want 1mW", got)
	}
	// 0 dBm into 50Ω is ~316 mV amplitude.
	amp := DBmToVolts(0, 50)
	if math.Abs(amp-0.31623) > 1e-3 {
		t.Errorf("DBmToVolts(0dBm,50) = %g, want ~0.316", amp)
	}
	if got := VoltsToDBm(amp, 50); math.Abs(got) > 1e-9 {
		t.Errorf("VoltsToDBm round trip = %g, want 0", got)
	}
	if !math.IsInf(VoltsToDBm(1, 0), -1) {
		t.Error("VoltsToDBm with r<=0 should be -inf")
	}
}

func TestBinFrequency(t *testing.T) {
	s := &Spectrum{Power: make([]float64, 513), SampleRate: 1024, NFFT: 1024}
	if f := s.BinFrequency(1); f != 1 {
		t.Errorf("BinFrequency(1) = %g", f)
	}
	if f := s.BinFrequency(512); f != 512 {
		t.Errorf("BinFrequency(512) = %g", f)
	}
}

func BenchmarkPowerSpectrum4096(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x := make([]float64, 4096)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PowerSpectrum(x, 1e6, BlackmanHarris); err != nil {
			b.Fatal(err)
		}
	}
}
