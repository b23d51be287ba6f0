package campaign

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"mstx/internal/digital"
	"mstx/internal/dsp"
	"mstx/internal/fault"
	"mstx/internal/spectest"
)

// buildCampaign builds a small gate-level FIR, a coherent two-tone
// stimulus of amplitude amp, and a detector calibrated on a noisy
// fault-free capture — a miniature of the E8 setup.
func buildCampaign(t testing.TB, n int, amp float64) (*fault.Universe, *spectest.Detector, []int64) {
	t.Helper()
	fir, err := digital.NewFIR([]int64{7, 15, 22, 15, 7}, 8)
	if err != nil {
		t.Fatal(err)
	}
	fs := 1e6
	f1 := dsp.CoherentBin(fs, n, 37)
	f2 := dsp.CoherentBin(fs, n, 53)
	ideal := make([]int64, n)
	noisy := make([]int64, n)
	rng := rand.New(rand.NewSource(90))
	for i := range ideal {
		ti := float64(i) / fs
		v := amp*math.Cos(2*math.Pi*f1*ti) + amp*math.Cos(2*math.Pi*f2*ti)
		ideal[i] = int64(math.Round(v))
		noisy[i] = int64(math.Round(v + rng.NormFloat64()*1.5))
	}
	sim := digital.NewFIRSim(fir)
	goodIdeal, err := sim.RunPeriodic(ideal)
	if err != nil {
		t.Fatal(err)
	}
	sim2 := digital.NewFIRSim(fir)
	goodNoisy, err := sim2.RunPeriodic(noisy)
	if err != nil {
		t.Fatal(err)
	}
	det, err := spectest.NewDetector(goodIdeal, fs, []float64{f1, f2}, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.CalibrateFloor(goodNoisy, 1.5); err != nil {
		t.Fatal(err)
	}
	return fault.NewUniverse(fir, true), det, ideal
}

// detectorRow is one detector every engine test runs with.
type detectorRow struct {
	name string
	det  fault.Detector
}

// rows returns the calibrated spectral detector and exact compare —
// the two detectors the repository's campaigns run.
func rows(det *spectest.Detector) []detectorRow {
	return []detectorRow{{"spectral", det}, {"exact", fault.ExactDetector{}}}
}

// batchReference grades u the plain way the engine must agree with:
// one full-netlist fault.Records pass per 63-fault batch, then
// fault.DiffStats and det.Detect on every lane — no parallel-pattern
// records and no screen.
func batchReference(t testing.TB, u *fault.Universe, xs []int64, det fault.Detector) *fault.Report {
	t.Helper()
	rep := &fault.Report{Patterns: len(xs)}
	for lo := 0; lo < u.Size(); lo += lanesPerBatch {
		batch := u.Faults[lo:min(lo+lanesPerBatch, u.Size())]
		good, faulty, err := fault.Records(u, xs, batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range batch {
			res := fault.Result{Fault: f, Tap: u.FIR.TapOfNet(f.Net)}
			res.FirstDiff, res.MaxAbsDiff = fault.DiffStats(good, faulty[i])
			if res.Detected, err = det.Detect(good, faulty[i]); err != nil {
				t.Fatal(err)
			}
			rep.Results = append(rep.Results, res)
		}
	}
	return rep
}

func TestEngineMatchesSerialSimulate(t *testing.T) {
	u, det, xs := buildCampaign(t, 512, 45)
	// SerialSimulate pays one full gate-level pass per fault, so cap
	// the universe at a few batches to keep the oracle affordable;
	// TestEngineMatchesBatchSimulate covers the full universe.
	u.Faults = u.Faults[:200]
	for _, row := range rows(det) {
		eng, err := New(u, row.det, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep, stats, err := eng.Run(context.Background(), xs)
		if err != nil {
			t.Fatal(err)
		}
		ser, err := fault.SerialSimulate(u, xs, row.det)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, ser) {
			t.Fatalf("%s: pooled report differs from SerialSimulate:\npooled %v\nserial %v", row.name, rep, ser)
		}
		if stats.Faults != u.Size() {
			t.Errorf("%s: stats.Faults = %d, want %d", row.name, stats.Faults, u.Size())
		}
		// Every lane is either screened or detected, plus the one
		// good-record evaluation backing the screen.
		if stats.Screened+stats.Spectra != stats.Faults+1 {
			t.Errorf("%s: screened %d + spectra %d != faults %d + 1",
				row.name, stats.Screened, stats.Spectra, stats.Faults)
		}
	}
}

func TestEngineReusePathsChangeNothing(t *testing.T) {
	// The campaign-level reuses — parallel-pattern fault replay and
	// zero-diff screening — must be invisible in the report: the engine
	// with full per-batch simulation and with parallel-pattern records
	// must both equal the plain batch reference, byte for byte.
	u, det, xs := buildCampaign(t, 512, 45)
	for _, row := range rows(det) {
		want := batchReference(t, u, xs, row.det)
		for _, full := range []bool{true, false} {
			eng, err := New(u, row.det, Options{})
			if err != nil {
				t.Fatal(err)
			}
			eng.fullNetlist = full
			rep, stats, err := eng.Run(context.Background(), xs)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Differential == full {
				t.Errorf("%s: fullNetlist %v ran Differential %v", row.name, full, stats.Differential)
			}
			if !reflect.DeepEqual(rep, want) {
				t.Fatalf("%s (fullNetlist %v): campaign reuses changed the report", row.name, full)
			}
		}
	}
}

func TestEngineMatchesBatchSimulate(t *testing.T) {
	// Full-universe equivalence against the 63-lane batch reference
	// (which fault's own tests prove equal to SerialSimulate).
	u, det, xs := buildCampaign(t, 512, 45)
	for _, row := range rows(det) {
		eng, err := New(u, row.det, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := eng.Run(context.Background(), xs)
		if err != nil {
			t.Fatal(err)
		}
		if want := batchReference(t, u, xs, row.det); !reflect.DeepEqual(rep, want) {
			t.Fatalf("%s: pooled report differs from the batch reference", row.name)
		}
	}
}

func TestZeroDiffScreenSkipsFFTsAndChangesNothing(t *testing.T) {
	// A low-amplitude stimulus leaves the high-order input bits
	// untoggled, so faults confined to their cones never perturb the
	// output: prime zero-diff screen territory. The stats are exact at
	// any worker count: every zero-diff lane is screened, every other
	// lane is detected once, plus the good record's own evaluation.
	u, det, xs := buildCampaign(t, 512, 4)
	for _, row := range rows(det) {
		want := batchReference(t, u, xs, row.det)
		zero := 0
		for _, r := range want.Results {
			if r.MaxAbsDiff == 0 {
				zero++
			}
		}
		if zero == 0 {
			t.Fatal("low-amplitude stimulus produced no zero-diff lanes; screen untested")
		}
		for _, workers := range []int{1, 4} {
			eng, err := New(u, row.det, Options{DetectWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			rep, stats, err := eng.Run(context.Background(), xs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep, want) {
				t.Fatalf("%s, %d workers: screened report differs from the batch reference", row.name, workers)
			}
			if stats.Screened != zero {
				t.Errorf("%s, %d workers: screened %d lanes, want the %d zero-diff lanes", row.name, workers, stats.Screened, zero)
			}
			if nonzero := u.Size() - zero; stats.Spectra != nonzero+1 {
				t.Errorf("%s, %d workers: %d detector evaluations, want %d non-zero lanes + 1", row.name, workers, stats.Spectra, nonzero)
			}
			if stats.Memoized != 0 {
				t.Errorf("%s, %d workers: deprecated Memoized reads %d, want 0", row.name, workers, stats.Memoized)
			}
		}
	}
}

func TestEngineSurfacesDetectorErrors(t *testing.T) {
	u, det, xs := buildCampaign(t, 512, 45)
	eng, err := New(u, det, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A stimulus whose length disagrees with the detector's reference
	// must abort the campaign, not report phantom non-detections.
	if _, _, err := eng.Run(context.Background(), xs[:256]); err == nil {
		t.Error("record/reference length mismatch did not abort the campaign")
	}
	if _, _, err := eng.Run(context.Background(), nil); err == nil {
		t.Error("empty stimulus accepted")
	}
	// A detector that fails on a faulty record aborts the campaign with
	// its error.
	eng, err = New(u, errDetector{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Run(context.Background(), xs); err == nil || !strings.Contains(err.Error(), "detector exploded") {
		t.Errorf("engine swallowed the detector error: %v", err)
	}
}

// errDetector clears the good record and fails on every faulty one;
// campaigns must surface the failure instead of counting phantom
// undetected faults.
type errDetector struct{}

func (errDetector) Detect(good, faulty []int64) (bool, error) {
	if slices.Equal(good, faulty) {
		return false, nil
	}
	return false, errors.New("detector exploded")
}

// countingWorkerDetector wraps ExactDetector with WorkerDetector
// bookkeeping so tests can prove the engine detects through the
// per-worker bound functions rather than the shared Detect.
type countingWorkerDetector struct {
	newErr      error
	newCalls    atomic.Int64
	boundCalls  atomic.Int64
	directCalls atomic.Int64
}

func (d *countingWorkerDetector) Detect(good, faulty []int64) (bool, error) {
	d.directCalls.Add(1)
	return fault.ExactDetector{}.Detect(good, faulty)
}

func (d *countingWorkerDetector) NewWorkerDetect() (func(good, faulty []int64) (bool, error), error) {
	if d.newErr != nil {
		return nil, d.newErr
	}
	d.newCalls.Add(1)
	return func(good, faulty []int64) (bool, error) {
		d.boundCalls.Add(1)
		return fault.ExactDetector{}.Detect(good, faulty)
	}, nil
}

func TestEngineBindsWorkerDetectors(t *testing.T) {
	u, _, xs := buildCampaign(t, 256, 45)
	want := batchReference(t, u, xs, fault.ExactDetector{})
	cd := &countingWorkerDetector{}
	eng, err := New(u, cd, Options{DetectWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := eng.Run(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, want) {
		t.Fatal("bound detectors changed the report")
	}
	// One bound detector per pool worker that ran a batch; only the
	// good-record verdict goes through the shared Detect.
	if n := cd.newCalls.Load(); n < 1 || n > 2 {
		t.Errorf("NewWorkerDetect called %d times, want one per worker (1..2)", n)
	}
	if cd.boundCalls.Load() == 0 {
		t.Error("no detection went through a bound worker function")
	}
	if n := cd.directCalls.Load(); n != 1 {
		t.Errorf("%d detections went through the shared Detect, want 1 (the good record)", n)
	}

	bad := &countingWorkerDetector{newErr: errors.New("scratch build failed")}
	eng, err = New(u, bad, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Run(context.Background(), xs); err == nil || !strings.Contains(err.Error(), "scratch build failed") {
		t.Errorf("engine swallowed the setup error: %v", err)
	}
	if bad.boundCalls.Load() != 0 {
		t.Error("detection ran through a detector whose setup failed")
	}
}

func TestNewValidation(t *testing.T) {
	u, det, _ := buildCampaign(t, 256, 45)
	if _, err := New(nil, det, Options{}); err == nil {
		t.Error("nil universe accepted")
	}
	if _, err := New(u, nil, Options{}); err == nil {
		t.Error("nil detector accepted")
	}
	eng, err := New(u, det, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Opts.DetectWorkers <= 0 {
		t.Errorf("defaults not applied: %+v", eng.Opts)
	}
}

func TestEngineSingleWorkerPipeline(t *testing.T) {
	// Degenerate pool sizes must still drain the pipeline and agree
	// with the default configuration.
	u, det, xs := buildCampaign(t, 256, 45)
	one, err := New(u, det, Options{DetectWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	repOne, _, err := one.Run(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	def, err := New(u, det, Options{})
	if err != nil {
		t.Fatal(err)
	}
	repDef, _, err := def.Run(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repOne, repDef) {
		t.Fatal("single-worker pipeline disagrees with default pools")
	}
}
