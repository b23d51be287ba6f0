package params

import (
	"math"
	"math/rand"
	"runtime"
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
func p1dbSweep(p *path.Path, cfg Config, sw *Sweep) func(amp float64) (float64, error) {
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
	gainAt := p1dbSweep(p, Config{N: 2048, Settle: 256}, new(Sweep))
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

// measureE6 runs the three Table 2 procedures on sw — P1dB by nominal
// gains, IIP3 adaptively, the LPF cut-off — as an E6 device lane does.
func measureE6(sw *Sweep, p *path.Path, cfg Config) ([3]Result, error) {
	var rs [3]Result
	var err error
	if rs[0], err = sw.MixerP1dB(p, NominalGains, cfg, nil); err != nil {
		return rs, err
	}
	if rs[1], err = sw.MixerIIP3(p, Adaptive, DefaultIIP3Stimulus(), cfg, nil); err != nil {
		return rs, err
	}
	rs[2], err = sw.LPFCutoff(p, cfg, nil)
	return rs, err
}

// TestSweepSecondDeviceAllocs pins that a sweep warmed on one device
// measures a second device's three Table 2 parameters without
// allocating a stage buffer or a carrier table when the process-wide
// set is warm too: the second device's LO table is refilled in place,
// and every stimulus and clock table it needs is already in the set
// (here published by another worker's sweep; the cut-off bisection
// visits device-dependent tones). The budget is below the smallest stage
// buffer (one ADC-rate record).
func TestSweepSecondDeviceAllocs(t *testing.T) {
	cfg := Config{N: 2048, Settle: 256}
	a, b := samplePath(t, 3), samplePath(t, 4)
	if a.LO.FreqHz == b.LO.FreqHz {
		t.Fatal("devices share an LO frequency; the LO refill is untested")
	}
	sw := new(Sweep)
	for _, warm := range []struct {
		sw *Sweep
		p  *path.Path
	}{{new(Sweep), b}, {sw, a}} {
		if _, err := measureE6(warm.sw, warm.p, cfg); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := measureE6(sw, b, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	budget := uint64(8 * (cfg.N + cfg.Settle))
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	if bytes >= budget {
		t.Fatalf("second device on a warmed sweep allocated %d bytes (%d mallocs), budget < %d", bytes, mallocs, budget)
	}
	t.Logf("second device on a warmed sweep: %d bytes in %d mallocs", bytes, mallocs)
	want, err := measureE6(new(Sweep), b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Float64bits(got[i].Measured) != math.Float64bits(want[i].Measured) {
			t.Fatalf("%s on a warmed shared sweep: %v, want %v", got[i].Kind, got[i].Measured, want[i].Measured)
		}
	}
}

// TestSweepCaptureMatchesAllocating compares every spectrum and record
// of a scratch-backed sweep bit for bit with the allocating capture
// (Path.Run plus dsp.PowerSpectrum), with and without noise draws and
// across changing tones, levels and capture lengths.
func TestSweepCaptureMatchesAllocating(t *testing.T) {
	p := samplePath(t, 11)
	sw := new(Sweep)
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
	gainAt := p1dbSweep(p, Config{N: 2048, Settle: 256}, new(Sweep))
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
