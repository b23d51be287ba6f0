package spectest

import (
	"fmt"
	"sync"
	"testing"

	"mstx/internal/digital"
	"mstx/internal/netlist"
)

// TestWorkerReDecidesNearThreshold puts the threshold strictly between
// one record's fast deviation and its reference deviation. With δ
// forced to 0 the worker's verdict then differs from Detect's — the
// fast spectrum alone cannot decide that record — and with the real δ
// the worker falls back to the reference transform for exactly that
// record and agrees.
func TestWorkerReDecidesNearThreshold(t *testing.T) {
	fir, ideal, goodIdeal, goodNoisy, tones, fs := buildFilterAndRecords(t, 512)
	det, err := NewDetector(goodIdeal, fs, tones, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.CalibrateFloor(goodNoisy, 1.5); err != nil {
		t.Fatal(err)
	}
	probe, err := det.newWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	var rec []int64
	var thr float64
	for _, f := range netlist.AllFaults(fir.Circuit) {
		sim := digital.NewFIRSim(fir)
		if err := sim.InjectFault(f, ^uint64(0)); err != nil {
			t.Fatal(err)
		}
		r, err := sim.RunPeriodic(ideal)
		if err != nil {
			t.Fatal(err)
		}
		s, err := probe.fast.PowerSpectrum(r, fs)
		if err != nil {
			t.Fatal(err)
		}
		devFast, _, ok := det.fastDeviation(s, probe.fast.ErrorBound(), 0)
		devRef, _, err := det.Deviation(r)
		if err != nil {
			t.Fatal(err)
		}
		mid := devFast + (devRef-devFast)/2
		if ok && min(devFast, devRef) < mid && mid < max(devFast, devRef) {
			rec, thr = r, mid
			break
		}
	}
	if rec == nil {
		t.Fatal("no record with a threshold between its fast and reference deviations")
	}
	det.FloorPower = thr // MarginDB 0: the threshold is the floor
	want, err := det.Detect(goodIdeal, rec)
	if err != nil {
		t.Fatal(err)
	}
	noDelta, err := det.newWorker(0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := noDelta.detect(goodIdeal, rec); err != nil {
		t.Fatal(err)
	} else if got == want {
		t.Fatalf("with δ = 0 the fast verdict %v equals Detect's: the record does not straddle the threshold", got)
	}
	w, err := det.newWorker(deltaMargin)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := w.detect(goodIdeal, rec); err != nil {
		t.Fatal(err)
	} else if got != want {
		t.Errorf("with the real δ the worker verdict %v != Detect's %v", got, want)
	}
	if w.fallbacks != 1 {
		t.Errorf("worker fell back %d times, want 1", w.fallbacks)
	}
}

// TestWorkerDetectConcurrentLengths builds worker detectors for four
// record lengths from many goroutines at once, so the first builds of
// the process-wide split-twiddle cache race each other (run under
// -race), and checks every worker's verdicts against Detect. The
// lengths zero-pad to FFT sizes no other test of this package uses.
func TestWorkerDetectConcurrentLengths(t *testing.T) {
	type job struct {
		det   *Detector
		good  []int64
		recs  [][]int64
		wants []bool
	}
	var jobs []job
	for _, n := range []int{96, 300, 1500, 5000} {
		fir, ideal, goodIdeal, goodNoisy, tones, fs := buildFilterAndRecords(t, n)
		det, err := NewDetector(goodIdeal, fs, tones, 2, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := det.CalibrateFloor(goodNoisy, 1.5); err != nil {
			t.Fatal(err)
		}
		j := job{det: det, good: goodIdeal, recs: [][]int64{goodNoisy, goodIdeal}}
		for _, f := range []netlist.Fault{{Net: fir.OutBus[1], Stuck: netlist.StuckAt1}, {Net: fir.OutBus[4], Stuck: netlist.StuckAt0}} {
			sim := digital.NewFIRSim(fir)
			if err := sim.InjectFault(f, ^uint64(0)); err != nil {
				t.Fatal(err)
			}
			rec, err := sim.RunPeriodic(ideal)
			if err != nil {
				t.Fatal(err)
			}
			j.recs = append(j.recs, rec)
		}
		for _, rec := range j.recs {
			v, err := det.Detect(goodIdeal, rec)
			if err != nil {
				t.Fatal(err)
			}
			j.wants = append(j.wants, v)
		}
		jobs = append(jobs, j)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := range jobs {
				j := jobs[(g+i)%len(jobs)]
				detect, err := j.det.NewWorkerDetect()
				if err != nil {
					t.Error(err)
					return
				}
				for r, rec := range j.recs {
					got, err := detect(j.good, rec)
					if err != nil {
						t.Error(err)
						return
					}
					if got != j.wants[r] {
						t.Errorf("goroutine %d, length %d, record %d: worker verdict %v, Detect %v",
							g, len(rec), r, got, j.wants[r])
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}

// BenchmarkDetectRecord is the per-record detect pair at 1024 samples:
// the reference transform through a worker Scratch (DetectRecord, what
// Detect and the fallback run) against the worker path (the fast
// spectrum, re-deciding only near the threshold).
func BenchmarkDetectRecord(b *testing.B) {
	fir, ideal, goodIdeal, goodNoisy, tones, fs := buildFilterAndRecords(b, 1024)
	det, err := NewDetector(goodIdeal, fs, tones, 2, 0, 3)
	if err != nil {
		b.Fatal(err)
	}
	if err := det.CalibrateFloor(goodNoisy, 1.5); err != nil {
		b.Fatal(err)
	}
	sim := digital.NewFIRSim(fir)
	if err := sim.InjectFault(netlist.Fault{Net: fir.OutBus[2], Stuck: netlist.StuckAt1}, ^uint64(0)); err != nil {
		b.Fatal(err)
	}
	rec, err := sim.RunPeriodic(ideal)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := det.NewScratch()
	if err != nil {
		b.Fatal(err)
	}
	detect, err := det.NewWorkerDetect()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		fn   func() (bool, error)
	}{
		{"reference", func() (bool, error) { return det.DetectRecord(rec, sc) }},
		{"worker", func() (bool, error) { return detect(goodIdeal, rec) }},
	} {
		b.Run(fmt.Sprintf("path=%s", c.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
