package spectest

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"mstx/internal/digital"
	"mstx/internal/dsp"
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
	probe, err := det.newWorker(workerMargins)
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
		if _, err := probe.rs.Load(r, nil); err != nil {
			t.Fatal(err)
		}
		p, err := probe.rs.Spectrum()
		if err != nil {
			t.Fatal(err)
		}
		devFast, _, ok := det.fastDeviation(p, probe.rs.SpectrumBound(), 0)
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
	noDelta := workerMargins
	noDelta.delta = 0
	w0, err := det.newWorker(noDelta)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := w0.detect(goodIdeal, rec); err != nil {
		t.Fatal(err)
	} else if got == want {
		t.Fatalf("with δ = 0 the fast verdict %v equals Detect's: the record does not straddle the threshold", got)
	}
	w, err := det.newWorker(workerMargins)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := w.detect(goodIdeal, rec); err != nil {
		t.Fatal(err)
	} else if got != want {
		t.Errorf("with the real δ the worker verdict %v != Detect's %v", got, want)
	}
	if w.routes.Fallback != 1 {
		t.Errorf("worker fell back %d times, want 1", w.routes.Fallback)
	}
}

// TestWorkerDetectConcurrentLengths builds worker detectors for four
// record lengths from many goroutines at once, so the first builds of
// the process-wide plan and split-twiddle caches (the fast spectrum's
// and the probe's fold lengths) race each other (run under -race), and
// checks every worker's verdicts against Detect. The lengths zero-pad
// to FFT sizes no other test of this package uses.
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

// faultRecords returns the record of every stuck-at fault of fir on
// the stimulus that changes the output, in netlist.AllFaults order,
// each replayed over one fault-free baseline as the campaign builds
// them.
func faultRecords(tb testing.TB, fir *digital.FIR, stimulus []int64) [][]int64 {
	tb.Helper()
	base, err := digital.NewFIRSim(fir).CaptureBaseline(stimulus)
	if err != nil {
		tb.Fatal(err)
	}
	replay, err := digital.NewFaultReplay(fir)
	if err != nil {
		tb.Fatal(err)
	}
	var recs [][]int64
	for _, f := range netlist.AllFaults(fir.Circuit) {
		r, _, _, err := replay.Record(base, f)
		if err != nil {
			tb.Fatal(err)
		}
		if r != nil {
			recs = append(recs, append([]int64(nil), r...))
		}
	}
	return recs
}

// routeOf runs one record through w and names the route that decided
// it: "bound", "probe", "full" or "fallback".
func routeOf(tb testing.TB, w *worker, good, rec []int64) (string, bool) {
	tb.Helper()
	before := w.routes
	got, err := w.detect(good, rec)
	if err != nil {
		tb.Fatal(err)
	}
	switch r := w.routes; {
	case r.Bound > before.Bound:
		return "bound", got
	case r.Probe > before.Probe:
		return "probe", got
	case r.Fallback > before.Fallback:
		return "fallback", got
	default:
		return "full", got
	}
}

// routeRecords returns, for the bound, probe and full routes, the
// first fault record a real-margin worker decides on that route
// against good.
func routeRecords(tb testing.TB, det *Detector, good []int64, recs [][]int64) map[string][]int64 {
	tb.Helper()
	w, err := det.newWorker(workerMargins)
	if err != nil {
		tb.Fatal(err)
	}
	out := map[string][]int64{}
	for _, r := range recs {
		if route, _ := routeOf(tb, w, good, r); out[route] == nil {
			out[route] = r
		}
	}
	for _, route := range []string{"bound", "probe", "full"} {
		if out[route] == nil {
			tb.Fatalf("no record takes the %s route (routes %+v)", route, w.routes)
		}
	}
	return out
}

// nearThresholdDetector builds the 512-sample filter's detector with
// MarginDB 0, so the threshold is FloorPower and a test can place it
// within an ulp of a record's deviation.
func nearThresholdDetector(t *testing.T) (det *Detector, goodIdeal []int64, recs [][]int64) {
	fir, ideal, goodIdeal, goodNoisy, tones, fs := buildFilterAndRecords(t, 512)
	det, err := NewDetector(goodIdeal, fs, tones, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.CalibrateFloor(goodNoisy, 1.5); err != nil {
		t.Fatal(err)
	}
	recs = append([][]int64{goodIdeal, goodNoisy}, faultRecords(t, fir, ideal)...)
	return det, goodIdeal, recs
}

// TestBoundScreenMarginLoadBearing shows the bound screen's rounding
// terms are needed. Each record is its own good record (L1 = 0), so
// with the margin at 0 the screen's bound is the reference deviation
// recomputed from the base's amplitudes, off from Detect's only by
// rounding. The threshold goes one ulp under Detect's deviation: for
// some record the margin-free screen then certifies a miss Detect
// calls a hit, and with the real margin the worker declines the screen
// and agrees with Detect.
func TestBoundScreenMarginLoadBearing(t *testing.T) {
	det, _, recs := nearThresholdDetector(t)
	noBound := workerMargins
	noBound.bound = 0
	for _, r := range recs {
		dev, _, err := det.Deviation(r)
		if err != nil {
			t.Fatal(err)
		}
		det.FloorPower = math.Nextafter(dev, 0)
		w0, err := det.newWorker(noBound)
		if err != nil {
			t.Fatal(err)
		}
		if route, got := routeOf(t, w0, r, r); route != "bound" || got {
			continue
		}
		w, err := det.newWorker(workerMargins)
		if err != nil {
			t.Fatal(err)
		}
		route, got := routeOf(t, w, r, r)
		if !got {
			t.Errorf("with the real margin the worker calls the record undetected on the %s route; Detect detects it", route)
		}
		if route == "bound" {
			t.Error("the bound screen decided a record within an ulp of the threshold")
		}
		return
	}
	t.Fatal("no record whose margin-free bound screen contradicts Detect")
}

// TestProbeMarginLoadBearing is the probe's counterpart: the threshold
// goes one ulp over Detect's deviation, so Detect calls each record
// undetected, and for some record whose largest deviation sits on a
// probed bin the margin-free probe reads it over the threshold. With
// the real margin the probe declines and the worker agrees with
// Detect.
func TestProbeMarginLoadBearing(t *testing.T) {
	det, goodIdeal, recs := nearThresholdDetector(t)
	noProbe := workerMargins
	noProbe.probe = 0
	for _, r := range recs {
		dev, _, err := det.Deviation(r)
		if err != nil {
			t.Fatal(err)
		}
		det.FloorPower = math.Nextafter(dev, math.Inf(1))
		w0, err := det.newWorker(noProbe)
		if err != nil {
			t.Fatal(err)
		}
		if route, got := routeOf(t, w0, goodIdeal, r); route != "probe" || !got {
			continue
		}
		w, err := det.newWorker(workerMargins)
		if err != nil {
			t.Fatal(err)
		}
		route, got := routeOf(t, w, goodIdeal, r)
		if got {
			t.Errorf("with the real margin the worker calls the record detected on the %s route; Detect does not", route)
		}
		if route == "probe" {
			t.Error("the probe decided a record within an ulp of the threshold")
		}
		return
	}
	t.Fatal("no record whose margin-free probe contradicts Detect")
}

// TestWorkerAlternatingGoods hands one worker two different good
// records in turn — as distinct slices and refilled into one slice, so
// a base cached by slice identity would go stale — and checks every
// verdict against Detect, that the base was rebuilt on every change,
// and that the bound screen took part.
func TestWorkerAlternatingGoods(t *testing.T) {
	fir, ideal, goodIdeal, goodNoisy, tones, fs := buildFilterAndRecords(t, 1024)
	det, err := NewDetector(goodIdeal, fs, tones, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.CalibrateFloor(goodNoisy, 1.5); err != nil {
		t.Fatal(err)
	}
	w, err := det.newWorker(workerMargins)
	if err != nil {
		t.Fatal(err)
	}
	goods := [][]int64{goodIdeal, goodNoisy}
	shared := make([]int64, len(goodIdeal))
	changes := 0
	for i, r := range faultRecords(t, fir, ideal) {
		want, err := det.Detect(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		good := goods[i%2]
		if i%4 >= 2 {
			copy(shared, good)
			good = shared
		}
		changes++ // every record switches between the two goods
		got, err := w.detect(good, r)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("record %d (good %d): worker verdict %v, Detect %v", i, i%2, got, want)
		}
	}
	if w.rebases != changes {
		t.Errorf("%d base rebuilds for %d good-record changes", w.rebases, changes)
	}
	if w.routes.Bound == 0 {
		t.Errorf("the bound screen decided no record: %+v", w.routes)
	}
	t.Logf("routes %+v", w.routes)
}

// TestWorkerFollowsLaterExclusions excludes, after a worker has
// decided records, the bin of the largest deviation of a record the
// probe detected. The worker must stop probing that bin and agree with
// Detect on every record again.
func TestWorkerFollowsLaterExclusions(t *testing.T) {
	fir, ideal, goodIdeal, goodNoisy, tones, fs := buildFilterAndRecords(t, 1024)
	det, err := NewDetector(goodIdeal, fs, tones, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.CalibrateFloor(goodNoisy, 1.5); err != nil {
		t.Fatal(err)
	}
	recs := faultRecords(t, fir, ideal)
	w, err := det.newWorker(workerMargins)
	if err != nil {
		t.Fatal(err)
	}
	bin := -1
	for _, r := range recs {
		if route, _ := routeOf(t, w, goodIdeal, r); route != "probe" {
			continue
		}
		if _, k, err := det.Deviation(r); err != nil {
			t.Fatal(err)
		} else if k%probeStride == 0 {
			bin = k
			break
		}
	}
	if bin < 0 {
		t.Fatal("no probe-detected record peaks on a probed bin")
	}
	det.ExcludeFrequency(dsp.CoherentBin(fs, 1024, bin))
	for i, r := range recs {
		want, err := det.Detect(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.detect(goodIdeal, r)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("record %d after excluding bin %d: worker verdict %v, Detect %v", i, bin, got, want)
		}
	}
	if slices.Contains(w.probed, bin) {
		t.Errorf("worker still probes excluded bin %d", bin)
	}
}

// TestWorkerZeroAllocsEveryRoute pins the warmed worker's steady
// state on each route: the bound screen, the probe, the full fast
// path, the reference fallback (forced by an unbounded δ) and a base
// rebuild.
func TestWorkerZeroAllocsEveryRoute(t *testing.T) {
	fir, ideal, goodIdeal, goodNoisy, tones, fs := buildFilterAndRecords(t, 1024)
	det, err := NewDetector(goodIdeal, fs, tones, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.CalibrateFloor(goodNoisy, 1.5); err != nil {
		t.Fatal(err)
	}
	byRoute := routeRecords(t, det, goodIdeal, faultRecords(t, fir, ideal))
	fallback := workerMargins
	fallback.delta = math.Inf(1)
	cases := []struct {
		route string
		m     margins
		rec   []int64
		goods [][]int64
	}{
		{"bound", workerMargins, byRoute["bound"], [][]int64{goodIdeal}},
		{"probe", workerMargins, byRoute["probe"], [][]int64{goodIdeal}},
		{"full", workerMargins, byRoute["full"], [][]int64{goodIdeal}},
		{"fallback", fallback, byRoute["full"], [][]int64{goodIdeal}},
		{"rebase", workerMargins, byRoute["probe"], [][]int64{goodIdeal, goodNoisy}},
	}
	for _, c := range cases {
		w, err := det.newWorker(c.m)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range c.goods { // warm: build the lazy scratches
			if _, err := w.detect(g, c.rec); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(20, func() {
			good := c.goods[i%len(c.goods)]
			i++
			route, _ := routeOf(t, w, good, c.rec)
			if c.route != "rebase" && route != c.route {
				t.Fatalf("record took the %s route, want %s", route, c.route)
			}
		})
		if allocs != 0 {
			t.Errorf("%s route: %v allocs per record, want 0", c.route, allocs)
		}
	}
}

// BenchmarkDetectRecord is the per-record detect pair at 1024 samples:
// the reference transform through a worker Scratch (DetectRecord, what
// Detect and the fallback run) against the worker path on one stuck
// output bit, plus the worker on a record chosen for each of its
// routes: a clear miss the bound screen decides, a clear hit the probe
// decides, and one that takes the full fast spectrum.
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
	byRoute := routeRecords(b, det, goodIdeal, faultRecords(b, fir, ideal))
	cases := []struct {
		name string
		fn   func() (bool, error)
	}{
		{"reference", func() (bool, error) { return det.DetectRecord(rec, sc) }},
		{"worker", func() (bool, error) { return detect(goodIdeal, rec) }},
	}
	for _, route := range []string{"bound", "probe", "full"} {
		r := byRoute[route]
		cases = append(cases, struct {
			name string
			fn   func() (bool, error)
		}{"worker/route=" + route, func() (bool, error) { return detect(goodIdeal, r) }})
	}
	for _, c := range cases {
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
