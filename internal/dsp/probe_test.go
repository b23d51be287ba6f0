package dsp

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// probeBins returns the direct bins the probe tests read at FFT length
// nfft: DC, Nyquist and a few in between, duplicates included.
func probeBins(nfft int) []int {
	return []int{1, nfft / 2, 0, nfft/2 - 1, nfft / 3, 1}
}

// TestProbeWithinBound compares every probed bin — the strided ones
// and the direct ones — with SpectrumScratch.PowerSpectrum on the same
// codes, for power-of-two and zero-padded lengths, three windows and
// every stride the length allows: each must be within ErrorBound. It
// also checks that Window writes the reference's windowed record bit
// for bit, and Load against it (checkLoad). The worst error is logged
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
				p, err := NewProbeScratch(n, w, stride, bins)
				if err != nil {
					t.Fatal(err)
				}
				x := make([]float64, n)
				for name, rec := range realSpectrumInputs(n) {
					label := fmt.Sprintf("%v n=%d stride=%d %s", w, n, stride, name)
					for i, v := range rec {
						x[i] = float64(v)
					}
					want, err := ref.PowerSpectrum(x, 1e6)
					if err != nil {
						t.Fatal(err)
					}
					xw := make([]float64, n)
					if _, err := p.Window(xw, rec); err != nil {
						t.Fatal(err)
					}
					for i, v := range xw {
						if math.Float64bits(v) != math.Float64bits(x[i]*ref.win[i]) {
							t.Fatalf("%s: windowed sample %d = %g, reference %g", label, i, v, x[i]*ref.win[i])
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
					bound := p.ErrorBound()
					check := func(k int, got float64) {
						d := math.Abs(got - want.Power[k])
						if d > bound {
							t.Fatalf("%s bin %d: |probe-ref| = %g > bound %g (probe %g, ref %g)",
								label, k, d, bound, got, want.Power[k])
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
	t.Logf("worst probed |probe-ref| / ErrorBound = %.3g", worst)
}

// checkLoad pins Load against Window's output xw for rec: against
// its own windowed samples the L1 is exactly 0 (Load windows bit for
// bit as Window does), against the windowed codes of a shifted copy of
// rec it and the energy equal their sums in any order within their
// rounding, and with a nil base it is 0. It leaves rec loaded.
func checkLoad(t *testing.T, label string, p *ProbeScratch, rec []int64, xw []float64) {
	t.Helper()
	if l1, err := p.Load(rec, xw); err != nil || l1 != 0 {
		t.Fatalf("%s: Load against its own windowed record: L1 %g, err %v", label, l1, err)
	}
	shifted := make([]int64, len(rec))
	for i := range rec {
		shifted[i] = rec[(i+1)%len(rec)] / 2
	}
	base := make([]float64, len(rec))
	eb, err := p.Window(base, shifted)
	if err != nil {
		t.Fatal(err)
	}
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
	var sumB float64
	for _, v := range base {
		sumB += v * v
	}
	if eb != sumB {
		t.Fatalf("%s: Window energy %g, summed %g", label, eb, sumB)
	}
	if l1, err := p.Load(rec, nil); err != nil || l1 != 0 {
		t.Fatalf("%s: Load with no base: L1 %g, err %v", label, l1, err)
	}
}

func TestProbeScratchValidation(t *testing.T) {
	if _, err := NewProbeScratch(0, Hann, 2, nil); err == nil {
		t.Error("zero length accepted")
	}
	for _, stride := range []int{0, 1, 3, 8} {
		if _, err := NewProbeScratch(8, Hann, stride, nil); err == nil {
			t.Errorf("stride %d accepted at NFFT 8", stride)
		}
	}
	if _, err := NewProbeScratch(8, Hann, 2, []int{5}); err == nil {
		t.Error("bin past Nyquist accepted")
	}
	p, err := NewProbeScratch(8, Hann, 4, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Load(make([]int64, 7), nil); err == nil {
		t.Error("short record accepted")
	}
	if _, err := p.Load(make([]int64, 8), make([]float64, 7)); err == nil {
		t.Error("short base accepted")
	}
	if _, err := p.Window(make([]float64, 7), make([]int64, 8)); err == nil {
		t.Error("short window output accepted")
	}
}

// TestProbeScratchZeroAllocs pins the probe's steady state: Load and
// Probe allocate nothing.
func TestProbeScratchZeroAllocs(t *testing.T) {
	rec := realSpectrumInputs(1024)["random"]
	p, err := NewProbeScratch(1024, BlackmanHarris, 8, probeBins(1024))
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
	}); a != 0 {
		t.Errorf("ProbeScratch Load+Probe: %v allocs per run, want 0", a)
	}
}

// TestProbeScratchConcurrentLengths builds probes for several lengths
// from many goroutines at once, so the first builds of the shared plan
// and split-twiddle caches race each other (run under -race), and
// checks every probe against the reference spectrum. The FFT lengths
// are ones no other test of this package uses.
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
				p, err := NewProbeScratch(j.n, BlackmanHarris, stride, []int{7})
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
				bound := p.ErrorBound()
				for jj, v := range strided {
					if d := math.Abs(v - j.want[stride*jj]); d > bound {
						t.Errorf("n=%d stride=%d bin %d: |probe-ref| = %g > %g", j.n, stride, stride*jj, d, bound)
						return
					}
				}
				if d := math.Abs(direct[0] - j.want[7]); d > bound {
					t.Errorf("n=%d bin 7: |probe-ref| = %g > %g", j.n, d, bound)
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}
