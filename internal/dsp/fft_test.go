package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func complexSlicesClose(t *testing.T, got, want []complex128, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length mismatch: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > tol {
			t.Fatalf("bin %d: got %v want %v (tol %g)", i, got[i], want[i], tol)
		}
	}
}

// dft computes the discrete Fourier transform by direct summation: the
// O(N²) oracle the FFT and Goertzel are tested against.
func dft(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for i := 0; i < n; i++ {
			ang := -2 * math.Pi * float64(k) * float64(i) / float64(n)
			sum += x[i] * complex(math.Cos(ang), math.Sin(ang))
		}
		out[k] = sum
	}
	return out
}

// fft transforms x in place on the shared plan of its length.
func fft(x []complex128) error {
	p, err := SharedPlan(len(x))
	if err != nil {
		return err
	}
	return p.Transform(x)
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 1024, 1 << 20} {
		if !IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = false, want true", n)
		}
	}
	for _, n := range []int{0, -1, -4, 3, 5, 6, 7, 12, 1000} {
		if IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = true, want false", n)
		}
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {1024, 1024}, {1025, 2048},
	}
	for _, c := range cases {
		if got := NextPowerOfTwo(c.in); got != c.want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestNextPowerOfTwoPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n <= 0")
		}
	}()
	NextPowerOfTwo(0)
}

func TestFFTMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := dft(x)
		got := append([]complex128(nil), x...)
		if err := fft(got); err != nil {
			t.Fatalf("fft(n=%d): %v", n, err)
		}
		complexSlicesClose(t, got, want, 1e-9*float64(n))
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, 3, 7, 12} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan accepted length %d", n)
		}
		if _, err := SharedPlan(n); err == nil {
			t.Errorf("SharedPlan accepted length %d", n)
		}
	}
}

func TestFFTKnownValues(t *testing.T) {
	// Impulse transforms to all-ones.
	x := []complex128{1, 0, 0, 0}
	if err := fft(x); err != nil {
		t.Fatal(err)
	}
	complexSlicesClose(t, x, []complex128{1, 1, 1, 1}, 1e-12)

	// A single-cycle cosine puts N/2 in bins 1 and N-1.
	n := 8
	y := make([]complex128, n)
	for i := range y {
		y[i] = complex(math.Cos(2*math.Pi*float64(i)/float64(n)), 0)
	}
	if err := fft(y); err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, n)
	want[1] = complex(float64(n)/2, 0)
	want[n-1] = complex(float64(n)/2, 0)
	complexSlicesClose(t, y, want, 1e-9)
}

func TestFFTLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 64
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		x := make([]complex128, n)
		y := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
			y[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		// FFT(a·x + y) == a·FFT(x) + FFT(y)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a*x[i] + y[i]
		}
		if err := fft(sum); err != nil {
			return false
		}
		if err := fft(x); err != nil {
			return false
		}
		if err := fft(y); err != nil {
			return false
		}
		for i := range sum {
			if cmplx.Abs(sum[i]-(a*x[i]+y[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 128
		x := make([]complex128, n)
		var timePower float64
		for i := range x {
			x[i] = complex(r.NormFloat64(), 0)
			timePower += real(x[i]) * real(x[i])
		}
		if err := fft(x); err != nil {
			return false
		}
		var freqPower float64
		for _, v := range x {
			freqPower += real(v)*real(v) + imag(v)*imag(v)
		}
		freqPower /= float64(n)
		return math.Abs(timePower-freqPower) < 1e-6*math.Max(1, timePower)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGoertzelMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{4, 16, 100, 256} {
		x := make([]float64, n)
		cx := make([]complex128, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			cx[i] = complex(x[i], 0)
		}
		want := dft(cx)
		for k := 0; k < n; k += 1 + n/8 {
			got := goertzel(x, k)
			if cmplx.Abs(got-want[k]) > 1e-7*float64(n) {
				t.Fatalf("goertzel(n=%d, k=%d) = %v, want %v", n, k, got, want[k])
			}
		}
	}
}

func TestGoertzelPhase(t *testing.T) {
	// sin at exactly bin 1 of N=4 must give X[1] = -2j.
	x := []float64{0, 1, 0, -1}
	got := goertzel(x, 1)
	if cmplx.Abs(got-complex(0, -2)) > 1e-12 {
		t.Fatalf("goertzel sine bin = %v, want (0,-2i)", got)
	}
}

func TestGoertzelEmpty(t *testing.T) {
	if goertzel(nil, 0) != 0 {
		t.Fatal("goertzel(nil) != 0")
	}
}

func TestGoertzelPowerOnBinTone(t *testing.T) {
	n := 256
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.5 * math.Cos(2*math.Pi*10*float64(i)/float64(n))
	}
	// |X[k]|²/N² for amplitude A on-bin tone is (A/2)².
	c := goertzel(x, 10)
	got := (real(c)*real(c) + imag(c)*imag(c)) / float64(n*n)
	want := (0.5 / 2) * (0.5 / 2)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("|goertzel|²/N² = %g, want %g", got, want)
	}
}

func TestPlanValidation(t *testing.T) {
	if _, err := NewPlan(3); err == nil {
		t.Error("non-power-of-two plan accepted")
	}
	p, err := NewPlan(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Transform(make([]complex128, 4)); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestCachedPlanShared(t *testing.T) {
	a, err := SharedPlan(256)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SharedPlan(256)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache returned distinct plans")
	}
	if _, err := SharedPlan(7); err == nil {
		t.Error("bad length accepted by cache")
	}
}

func BenchmarkFFTPlanned4096(b *testing.B) {
	rng := rand.New(rand.NewSource(201))
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
	}
	p, err := NewPlan(4096)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]complex128, len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		if err := p.Transform(buf); err != nil {
			b.Fatal(err)
		}
	}
}
