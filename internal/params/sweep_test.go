package params

import (
	"math"
	"math/rand"
	"testing"

	"mstx/internal/dsp"
	"mstx/internal/msignal"
	"mstx/internal/path"
)

// maxSweepCaptureAllocs bounds the allocations of one warmed sweep
// capture. The carrier tables, stage buffers and spectrum scratch are
// all reused, so it measures zero; the budget leaves room for the
// stimulus's one-tone slice should it ever escape.
const maxSweepCaptureAllocs = 1

// p1dbSweep returns the P1dB procedure's gainAt capture on a sweep
// scratch: a 900 kHz-IF tone at the given PI amplitude, measured at
// the output.
func p1dbSweep(p *path.Path, cfg Config, sw *sweep) func(amp float64) (float64, error) {
	fIF := ifBin(p, cfg, 900e3)
	fRF := rfFor(p, fIF)
	return func(amp float64) (float64, error) {
		s, _, err := sw.capture(p, msignal.NewTone(fRF, amp), cfg, nil)
		if err != nil {
			return 0, err
		}
		return dsp.MeasureTone(s, fIF).Amplitude, nil
	}
}

// TestSweepCaptureAllocs pins the allocation budget of a warmed sweep
// capture on the E6 capture geometry.
func TestSweepCaptureAllocs(t *testing.T) {
	p := samplePath(t, 3)
	gainAt := p1dbSweep(p, Config{N: 2048, Settle: 256}, new(sweep))
	if _, err := gainAt(0.002); err != nil {
		t.Fatal(err)
	}
	amp := 0.002
	allocs := testing.AllocsPerRun(10, func() {
		amp *= 1.3
		if _, err := gainAt(amp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxSweepCaptureAllocs {
		t.Fatalf("warmed sweep capture: %.1f allocs, budget %d", allocs, maxSweepCaptureAllocs)
	}
}

// TestSweepCaptureMatchesAllocating compares every spectrum and record
// of a scratch-backed sweep bit for bit with the allocating capture
// (Path.Run plus dsp.PowerSpectrum), with and without noise draws and
// across changing tones, levels and capture lengths.
func TestSweepCaptureMatchesAllocating(t *testing.T) {
	p := samplePath(t, 11)
	sw := new(sweep)
	lo := p.Spec.LO.FreqHz.Nominal
	stims := []msignal.Signal{
		msignal.NewTone(lo+900e3, 0.002),
		msignal.NewTone(lo+900e3, 0.02),
		msignal.NewTwoTone(lo+0.9e6, lo+1.0e6, 0.01),
		{},
		msignal.NewTone(lo+200e3, 0.004),
		msignal.NewTone(lo+200e3, 0.004),
	}
	for i, stim := range stims {
		for _, cfg := range []Config{{N: 256, Settle: 64}, {N: 2048, Settle: 256}} {
			for _, seeded := range []bool{false, true} {
				var rGot, rWant *rand.Rand
				if seeded {
					rGot, rWant = rand.New(rand.NewSource(int64(i))), rand.New(rand.NewSource(int64(i)))
				}
				gotS, gotRec, err := sw.capture(p, stim, cfg, rGot)
				if err != nil {
					t.Fatal(err)
				}
				c, err := p.Run(stim, cfg.N+cfg.Settle, rWant)
				if err != nil {
					t.Fatal(err)
				}
				wantRec := c.FilterOut[cfg.Settle:]
				wantS, err := dsp.PowerSpectrum(wantRec, p.Spec.ADCRate, dsp.Rectangular)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(gotRec, wantRec) || !sameBits(gotS.Power, wantS.Power) {
					t.Fatalf("stim %d N=%d seeded=%v: scratch capture differs from allocating capture", i, cfg.N, seeded)
				}
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// BenchmarkPathCapture measures one warmed sweep capture of the E6
// device lanes: the P1dB gainAt step on a sampled device at the Table 2
// capture geometry (N 2048, settle 256), with the carrier tables,
// stage buffers and spectrum scratch reused. Levels cycle over a fixed
// set so every op does the same work.
func BenchmarkPathCapture(b *testing.B) {
	p := samplePath(b, 3)
	gainAt := p1dbSweep(p, Config{N: 2048, Settle: 256}, new(sweep))
	levels := []float64{0.002, 0.004, 0.0052, 0.0068}
	if _, err := gainAt(levels[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gainAt(levels[i%len(levels)]); err != nil {
			b.Fatal(err)
		}
	}
}
