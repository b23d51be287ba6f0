package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// realSpectrumInputs returns the named code records the scratch's
// views are checked on at length n: full-scale two-tone, random codes,
// impulses, DC, Nyquist and all-zero.
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

// probeBins returns the direct bins the probe tests read at FFT length
// nfft: DC, Nyquist and a few in between, duplicates included.
func probeBins(nfft int) []int {
	return []int{1, nfft / 2, 0, nfft/2 - 1, nfft / 3, 1}
}

// referenceOf returns SpectrumScratch.PowerSpectrum's power for the
// codes rec as float64, through ref.
func referenceOf(t *testing.T, ref *SpectrumScratch, rec []int64) []float64 {
	t.Helper()
	x := make([]float64, len(rec))
	for i, v := range rec {
		x[i] = float64(v)
	}
	s, err := ref.PowerSpectrum(x, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	return s.Power
}

// TestReferenceBitIdentical pins the reference view: after Load, the
// scratch's Reference equals SpectrumScratch.PowerSpectrum on the same
// codes as float64 bit for bit, at every length 1–64 and at each power
// of two up to 4096 and its neighbours, under three windows.
func TestReferenceBitIdentical(t *testing.T) {
	var lengths []int
	for n := 1; n <= 64; n++ {
		lengths = append(lengths, n)
	}
	for n := 128; n <= 4096; n *= 2 {
		lengths = append(lengths, n-1, n, n+1)
	}
	lengths = append(lengths, 1000, 3000)
	for _, w := range []WindowType{BlackmanHarris, Rectangular, Hann} {
		for _, n := range lengths {
			ref, err := NewSpectrumScratch(n, w)
			rs, rerr := NewRecordScratch(n, w, 0, nil)
			if err != nil || rerr != nil {
				// Hann at n ≤ 2 has zero coherent gain: both refuse.
				if err == nil || rerr == nil {
					t.Fatalf("%v n=%d: reference error %v, record error %v", w, n, err, rerr)
				}
				continue
			}
			for name, rec := range realSpectrumInputs(n) {
				want := referenceOf(t, ref, rec)
				if _, err := rs.Load(rec, nil); err != nil {
					t.Fatal(err)
				}
				got, err := rs.Reference()
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%v n=%d %s: %d bins, reference %d", w, n, name, len(got), len(want))
				}
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("%v n=%d %s bin %d: %g, reference %g (must be bit-identical)",
							w, n, name, k, got[k], want[k])
					}
				}
			}
		}
	}
}

// TestRealSpectrumWithinBound compares the fast spectrum view against
// SpectrumScratch.PowerSpectrum on the same codes, for every
// power-of-two length 4…8192 and some that zero-pad, under three
// windows: every bin must differ by no more than SpectrumBound. The
// worst observed error is logged as a fraction of the bound.
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
			rs, rerr := NewRecordScratch(n, w, 0, nil)
			if err != nil || rerr != nil {
				if err == nil || rerr == nil {
					t.Fatalf("%v n=%d: reference error %v, record error %v", w, n, err, rerr)
				}
				continue
			}
			for name, rec := range realSpectrumInputs(n) {
				want := referenceOf(t, ref, rec)
				if _, err := rs.Load(rec, nil); err != nil {
					t.Fatal(err)
				}
				got, err := rs.Spectrum()
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%v n=%d %s: %d bins, reference %d", w, n, name, len(got), len(want))
				}
				bound := rs.SpectrumBound()
				for k := range want {
					d := math.Abs(got[k] - want[k])
					if d > bound {
						t.Fatalf("%v n=%d %s bin %d: |fast-ref| = %g > bound %g (fast %g, ref %g)",
							w, n, name, k, d, bound, got[k], want[k])
					}
					if bound > 0 {
						worst = max(worst, d/bound)
					}
				}
			}
		}
	}
	t.Logf("worst per-bin |fast-ref| / SpectrumBound = %.3g", worst)
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

// TestProbeWithinBound compares every probed bin — the strided ones
// and the direct ones — with SpectrumScratch.PowerSpectrum on the same
// codes, for power-of-two and zero-padded lengths, three windows and
// every stride the length allows: each must be within ProbeBound. It
// also checks that Load windows the codes bit for bit as the reference
// does, and its L1 and energy (checkLoad). The worst error is logged
// as a fraction of the bound.
func TestProbeWithinBound(t *testing.T) {
	lengths := []int{3, 4, 5, 16, 100, 1000, 1024, 3000, 4096}
	worst := 0.0
	for _, w := range []WindowType{BlackmanHarris, Rectangular, Hann} {
		for _, n := range lengths {
			ref, err := NewSpectrumScratch(n, w)
			if err != nil {
				continue // Hann at n ≤ 2: zero coherent gain
			}
			nfft := NextPowerOfTwo(n)
			bins := probeBins(nfft)
			for stride := 2; 2*stride <= nfft; stride *= 2 {
				p, err := NewRecordScratch(n, w, stride, bins)
				if err != nil {
					t.Fatal(err)
				}
				for name, rec := range realSpectrumInputs(n) {
					label := fmt.Sprintf("%v n=%d stride=%d %s", w, n, stride, name)
					want := referenceOf(t, ref, rec)
					if _, err := p.Load(rec, nil); err != nil {
						t.Fatal(err)
					}
					xw := append([]float64(nil), p.Windowed()...)
					for i, v := range xw {
						if r := float64(rec[i]) * ref.win[i]; math.Float64bits(v) != math.Float64bits(r) {
							t.Fatalf("%s: windowed sample %d = %g, reference %g", label, i, v, r)
						}
					}
					checkLoad(t, label, p, rec, xw)
					strided, direct, err := p.Probe()
					if err != nil {
						t.Fatal(err)
					}
					if len(strided) != nfft/(2*stride)+1 || len(direct) != len(bins) {
						t.Fatalf("%s: %d strided, %d direct bins", label, len(strided), len(direct))
					}
					bound := p.ProbeBound()
					check := func(k int, got float64) {
						d := math.Abs(got - want[k])
						if d > bound {
							t.Fatalf("%s bin %d: |probe-ref| = %g > bound %g (probe %g, ref %g)",
								label, k, d, bound, got, want[k])
						}
						if bound > 0 {
							worst = max(worst, d/bound)
						}
					}
					for j, v := range strided {
						check(stride*j, v)
					}
					for i, v := range direct {
						check(bins[i], v)
					}
				}
			}
		}
	}
	t.Logf("worst probed |probe-ref| / ProbeBound = %.3g", worst)
}

// checkLoad pins Load against rec's windowed samples xw: against them
// the L1 is exactly 0, against the windowed codes of a shifted copy of
// rec it and the energy equal their sums in any order within their
// rounding, and with a nil base it is 0. It leaves rec loaded.
func checkLoad(t *testing.T, label string, p *RecordScratch, rec []int64, xw []float64) {
	t.Helper()
	if l1, err := p.Load(rec, xw); err != nil || l1 != 0 {
		t.Fatalf("%s: Load against its own windowed record: L1 %g, err %v", label, l1, err)
	}
	shifted := make([]int64, len(rec))
	for i := range rec {
		shifted[i] = rec[(i+1)%len(rec)] / 2
	}
	if _, err := p.Load(shifted, nil); err != nil {
		t.Fatal(err)
	}
	base := append([]float64(nil), p.Windowed()...)
	l1, err := p.Load(rec, base)
	if err != nil {
		t.Fatal(err)
	}
	var want, wantE float64
	for i, v := range xw {
		want += math.Abs(v - base[i])
		wantE += v * v
	}
	if tol := gamma(float64(len(rec)+1)) * want; math.Abs(l1-want) > tol {
		t.Fatalf("%s: Load L1 %g, summed %g", label, l1, want)
	}
	if tol := gamma(float64(len(rec)+1)) * wantE; math.Abs(p.Energy()-wantE) > tol {
		t.Fatalf("%s: Energy %g, summed %g", label, p.Energy(), wantE)
	}
	if l1, err := p.Load(rec, nil); err != nil || l1 != 0 {
		t.Fatalf("%s: Load with no base: L1 %g, err %v", label, l1, err)
	}
}

func TestProbeScratchValidation(t *testing.T) {
	if _, err := NewRecordScratch(0, Hann, 2, nil); err == nil {
		t.Error("zero length accepted")
	}
	for _, stride := range []int{1, 3, 8} {
		if _, err := NewRecordScratch(8, Hann, stride, nil); err == nil {
			t.Errorf("stride %d accepted at NFFT 8", stride)
		}
	}
	if _, err := NewRecordScratch(8, Hann, 2, []int{5}); err == nil {
		t.Error("bin past Nyquist accepted")
	}
	p, err := NewRecordScratch(8, Hann, 4, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Load(make([]int64, 7), nil); err == nil {
		t.Error("short record accepted")
	}
	if _, err := p.Load(make([]int64, 8), make([]float64, 7)); err == nil {
		t.Error("short base accepted")
	}
}

// TestRealSpectrumScratchValidation covers the scratch built without a
// probe (stride 0), the one records too short to fold get.
func TestRealSpectrumScratchValidation(t *testing.T) {
	if _, err := NewRecordScratch(2, Hann, 0, nil); err == nil {
		t.Error("zero coherent gain accepted")
	}
	sc, err := NewRecordScratch(8, Hann, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Load(make([]int64, 9), nil); err == nil {
		t.Error("long record accepted")
	}
	if _, _, err := sc.Probe(); err == nil {
		t.Error("Probe without a probe accepted")
	}
}

// TestProbeScratchZeroAllocs pins the scratch's steady state: Load,
// Probe, Spectrum and Reference together allocate nothing.
func TestProbeScratchZeroAllocs(t *testing.T) {
	rec := realSpectrumInputs(1024)["random"]
	p, err := NewRecordScratch(1024, BlackmanHarris, 8, probeBins(1024))
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() {
		if _, err := p.Load(rec, nil); err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.Probe(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Spectrum(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Reference(); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("RecordScratch Load+Probe+Spectrum+Reference: %v allocs per run, want 0", a)
	}
}

// TestRealSpectrumScratchZeroAllocs is TestProbeScratchZeroAllocs for
// the scratch built without a probe: Load, Spectrum and Reference.
func TestRealSpectrumScratchZeroAllocs(t *testing.T) {
	rec := realSpectrumInputs(1024)["random"]
	sc, err := NewRecordScratch(1024, BlackmanHarris, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() {
		if _, err := sc.Load(rec, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Spectrum(); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Reference(); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("RecordScratch Load+Spectrum+Reference: %v allocs per run, want 0", a)
	}
}

// TestProbeScratchConcurrentLengths builds scratches for several
// lengths from many goroutines at once, so the first builds of the
// shared plan and split-twiddle caches race each other (run under
// -race), and checks every scratch's views against the reference
// spectrum: the reference view bit for bit, the probe and the fast
// spectrum within their bounds. The FFT lengths are ones no other test
// of this package uses.
func TestProbeScratchConcurrentLengths(t *testing.T) {
	type job struct {
		n    int
		rec  []int64
		want []float64
	}
	var jobs []job
	for _, n := range []int{10000, 20000, 40000} {
		rec := realSpectrumInputs(n)["tones"]
		x := make([]float64, n)
		for i, v := range rec {
			x[i] = float64(v)
		}
		s, err := PowerSpectrum(x, 1e6, BlackmanHarris)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{n: n, rec: rec, want: s.Power})
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := range jobs {
				j := jobs[(g+i)%len(jobs)]
				stride := 4 << (g % 3)
				p, err := NewRecordScratch(j.n, BlackmanHarris, stride, []int{7})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := p.Load(j.rec, nil); err != nil {
					t.Error(err)
					return
				}
				strided, direct, err := p.Probe()
				if err != nil {
					t.Error(err)
					return
				}
				bound := p.ProbeBound()
				for jj, v := range strided {
					if d := math.Abs(v - j.want[stride*jj]); d > bound {
						t.Errorf("n=%d stride=%d bin %d: |probe-ref| = %g > %g", j.n, stride, stride*jj, d, bound)
						return
					}
				}
				if d := math.Abs(direct[0] - j.want[7]); d > bound {
					t.Errorf("n=%d bin 7: |probe-ref| = %g > %g", j.n, d, bound)
				}
				fast, err := p.Spectrum()
				if err != nil {
					t.Error(err)
					return
				}
				ref, err := p.Reference()
				if err != nil {
					t.Error(err)
					return
				}
				bound = p.SpectrumBound()
				for k, want := range j.want {
					if math.Float64bits(ref[k]) != math.Float64bits(want) {
						t.Errorf("n=%d bin %d: reference view %g, PowerSpectrum %g", j.n, k, ref[k], want)
						return
					}
					if d := math.Abs(fast[k] - want); d > bound {
						t.Errorf("n=%d bin %d: |fast-ref| = %g > %g", j.n, k, d, bound)
						return
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}
