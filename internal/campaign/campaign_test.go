package campaign

import (
	"context"
	"math"
	"math/rand"
	"reflect"
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

func TestEngineMatchesSerialSimulate(t *testing.T) {
	u, det, xs := buildCampaign(t, 512, 45)
	// SerialSimulate pays one full gate-level pass per fault, so cap
	// the universe at a few batches to keep the oracle affordable;
	// TestEngineMatchesBatchSimulate covers the full universe.
	u.Faults = u.Faults[:200]
	eng, err := New(u, det, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, stats, err := eng.Run(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	ser, err := fault.SerialSimulate(u, xs, det)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, ser) {
		t.Fatalf("pooled report differs from SerialSimulate:\npooled %v\nserial %v", rep, ser)
	}
	if stats.Faults != u.Size() {
		t.Errorf("stats.Faults = %d, want %d", stats.Faults, u.Size())
	}
	// Every lane is either screened, memoized, or transformed, plus the
	// one good-record spectrum backing the screen.
	if stats.Screened+stats.Memoized+stats.Spectra != stats.Faults+1 {
		t.Errorf("screened %d + memoized %d + spectra %d != faults %d + 1",
			stats.Screened, stats.Memoized, stats.Spectra, stats.Faults)
	}
}

func TestEngineReusePathsChangeNothing(t *testing.T) {
	// The three campaign-level reuses — parallel-pattern fault replay,
	// zero-diff screening, and record-verdict memoization — must be
	// invisible in the report: run the engine with everything disabled
	// (full per-batch simulation, one FFT per lane) and with everything
	// on, and require byte-identical reports.
	u, det, xs := buildCampaign(t, 512, 45)
	plain, err := New(u, det, Options{
		DisableScreen: true, DisableDifferential: true, DisableMemo: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := New(u, det, Options{})
	if err != nil {
		t.Fatal(err)
	}
	repP, statsP, err := plain.Run(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	repT, statsT, err := tuned.Run(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	if statsP.Differential {
		t.Error("DisableDifferential ignored")
	}
	if statsP.Memoized != 0 {
		t.Errorf("disabled memo still memoized %d lanes", statsP.Memoized)
	}
	if !statsT.Differential {
		t.Error("parallel-pattern path not taken on a compiled circuit")
	}
	if !reflect.DeepEqual(repP, repT) {
		t.Fatal("campaign reuses changed the report")
	}
}

func TestEngineMatchesBatchSimulate(t *testing.T) {
	// Full-universe equivalence against the 63-lane batch path (which
	// fault's own tests prove equal to SerialSimulate).
	u, det, xs := buildCampaign(t, 512, 45)
	eng, err := New(u, det, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := eng.Run(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := fault.Simulate(context.Background(), u, xs, det)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, batch) {
		t.Fatal("pooled report differs from the batch simulation path")
	}
}

func TestZeroDiffScreenSkipsFFTsAndChangesNothing(t *testing.T) {
	// A low-amplitude stimulus leaves the high-order input bits
	// untoggled, so faults confined to their cones never perturb the
	// output: prime zero-diff screen territory. One detect worker each:
	// with several, two workers can both miss the memo table on one
	// record, and the Spectra counts would depend on scheduling.
	u, det, xs := buildCampaign(t, 512, 4)
	screened, err := New(u, det, Options{DetectWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	unscreened, err := New(u, det, Options{DetectWorkers: 1, DisableScreen: true})
	if err != nil {
		t.Fatal(err)
	}
	repS, statsS, err := screened.Run(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	repU, statsU, err := unscreened.Run(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	if statsS.Screened == 0 {
		t.Fatal("low-amplitude stimulus produced no zero-diff lanes; screen untested")
	}
	if statsU.Screened != 0 {
		t.Errorf("disabled screen still screened %d lanes", statsU.Screened)
	}
	// Unscreened, every zero-diff lane carries the same record (the good
	// output, which the memo table does not hold): the first pays one
	// spectrum and the rest hit the memo. The screen saves exactly that.
	if statsS.Spectra != statsU.Spectra-1 {
		t.Errorf("screen saved %d spectra (%d vs %d), want exactly 1",
			statsU.Spectra-statsS.Spectra, statsS.Spectra, statsU.Spectra)
	}
	if !reflect.DeepEqual(repS, repU) {
		t.Fatal("zero-diff screen changed the report")
	}
	batch, err := fault.Simulate(context.Background(), u, xs, det)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repS, batch) {
		t.Fatal("screened report differs from the batch simulation path")
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
