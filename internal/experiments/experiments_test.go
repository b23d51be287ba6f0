package experiments

import (
	"math"
	"strings"
	"testing"

	"mstx/internal/params"
)

func TestBuildDefaultSpec(t *testing.T) {
	spec, err := BuildDefaultSpec()
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(spec.FilterCoeffs) != DefaultFilterTaps {
		t.Errorf("filter taps = %d", len(spec.FilterCoeffs))
	}
}

func TestFig1SpectraShape(t *testing.T) {
	res, err := Fig1(Fig1Options{Patterns: 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("series = %d", len(res.Series))
	}
	// The fault-free spectrum must be clean; every faulty one dirty.
	goodSpurs := res.Series[0].SpurCount(res.ToneBin, -60)
	for i := 1; i < 4; i++ {
		faultSpurs := res.Series[i].SpurCount(res.ToneBin, -60)
		if faultSpurs <= goodSpurs {
			t.Errorf("%s: %d spurs, good machine has %d", res.Series[i].Label, faultSpurs, goodSpurs)
		}
	}
	if !strings.Contains(res.Format(), "fault-free") {
		t.Error("Format missing series labels")
	}
}

func TestFig1DefaultOptions(t *testing.T) {
	res, err := Fig1(Fig1Options{Patterns: 256, Taps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.NFFT != 256 {
		t.Errorf("NFFT = %d", res.NFFT)
	}
}

func TestCoverageVsTonesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("gate-level sweep skipped in -short")
	}
	res, err := CoverageVsTones(TonesOptions{Patterns: 256, MaxTones: 2, Taps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper's shape: two-tone >= single tone (within noise), both
	// high.
	if res.Rows[0].Coverage < 60 {
		t.Errorf("single-tone coverage %.1f%% too low", res.Rows[0].Coverage)
	}
	if res.Rows[1].Coverage < res.Rows[0].Coverage-3 {
		t.Errorf("two-tone %.1f%% below single-tone %.1f%%",
			res.Rows[1].Coverage, res.Rows[0].Coverage)
	}
	if !strings.Contains(res.Format(), "coverage") {
		t.Error("Format missing header")
	}
}

func TestFig2Losses(t *testing.T) {
	res, err := Fig2(DefaultFig2Options())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.X) != 201 || len(res.PDF) != 201 {
		t.Fatal("curve length wrong")
	}
	if res.Losses.FCL <= 0 || res.Losses.YL <= 0 {
		t.Errorf("losses should be positive at the nominal threshold: %+v", res.Losses)
	}
	if res.Sweep[1].Losses.FCL > 0.005 {
		t.Errorf("Tol-Err FCL = %g", res.Sweep[1].Losses.FCL)
	}
	if res.Sweep[2].Losses.YL > 0.005 {
		t.Errorf("Tol+Err YL = %g", res.Sweep[2].Losses.YL)
	}
	if _, err := Fig2(Fig2Options{Sigma: 0}); err == nil {
		t.Error("zero sigma accepted")
	}
	if !strings.Contains(res.Format(), "FCL") {
		t.Error("Format missing losses")
	}
}

func TestFig3BoundaryScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("path-level scenario sweep skipped in -short")
	}
	res, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 3 {
		t.Fatalf("scenarios = %d", len(res.Scenarios))
	}
	nom, masked, noisy := res.Scenarios[0], res.Scenarios[1], res.Scenarios[2]
	if !nom.CompositeGainPass || !nom.SaturationPass || !nom.NoisePass {
		t.Errorf("nominal device failed something: %+v", nom)
	}
	if !masked.CompositeGainPass {
		t.Errorf("masked device should pass the composite gain test: %+v", masked)
	}
	if masked.SaturationPass {
		t.Errorf("masked device escaped the saturation check: %+v", masked)
	}
	if !noisy.CompositeGainPass {
		t.Errorf("noisy device should pass the composite gain test: %+v", noisy)
	}
	if noisy.NoisePass {
		t.Errorf("noisy device escaped the noise check: %+v", noisy)
	}
	if !strings.Contains(res.Format(), "FAIL") {
		t.Error("Format should show failures")
	}
}

func TestFig4AdaptiveBeatsNominal(t *testing.T) {
	if testing.Short() {
		t.Skip("monte carlo skipped in -short")
	}
	res, err := Fig4(Fig4Options{Devices: 16, N: 1024})
	if err != nil {
		t.Fatal(err)
	}
	full := res.RMSByMethod(params.FullAccess)
	nom := res.RMSByMethod(params.NominalGains)
	ada := res.RMSByMethod(params.Adaptive)
	if !(ada < nom) {
		t.Errorf("adaptive RMS %g should beat nominal %g", ada, nom)
	}
	if !(full < ada) {
		t.Errorf("full access RMS %g should be the floor (adaptive %g)", full, ada)
	}
	if math.IsNaN(res.RMSByMethod(params.Method(9))) == false {
		t.Error("unknown method should return NaN")
	}
	if !strings.Contains(res.Format(), "adaptive") {
		t.Error("Format missing methods")
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("monte carlo skipped in -short")
	}
	res, err := Table2(Table2Options{Devices: 6, N: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ErrSigma <= 0 {
			t.Errorf("%s: sigma = %g", row.Parameter, row.ErrSigma)
		}
		// Table 2's structural signature.
		if row.Sweep[1].Losses.FCL > 0.01 {
			t.Errorf("%s: Tol-Err FCL = %g", row.Parameter, row.Sweep[1].Losses.FCL)
		}
		if row.Sweep[2].Losses.YL > 0.01 {
			t.Errorf("%s: Tol+Err YL = %g", row.Parameter, row.Sweep[2].Losses.YL)
		}
		if row.Sweep[2].Losses.FCL < row.Sweep[0].Losses.FCL {
			t.Errorf("%s: loosening lowered FCL", row.Parameter)
		}
	}
	if !strings.Contains(res.Format(), "Tol+Err FCL") {
		t.Error("Format missing columns")
	}
}

func TestTable1PlanPrints(t *testing.T) {
	res, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	out := res.Format()
	for _, want := range []string{"path-gain", "mixer-iip3", "lpf-cutoff", "DFT fallback", "boundary checks"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan output missing %q", want)
		}
	}
}

func TestPathFaultSimShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full gate-level campaign skipped in -short")
	}
	res, err := PathFaultSim(PathFaultOptions{BasePatterns: 256, LongPatterns: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	exact, short, long := res.Rows[0], res.Rows[1], res.Rows[2]
	if exact.Coverage < 70 {
		t.Errorf("exact coverage %.1f%% too low", exact.Coverage)
	}
	if short.Coverage > exact.Coverage {
		t.Errorf("spectral %.1f%% above exact %.1f%%", short.Coverage, exact.Coverage)
	}
	// At miniature record sizes the floor placement is noisy; require
	// only that 4× patterns does not lose coverage materially.
	if long.Coverage < short.Coverage-3 {
		t.Errorf("more patterns lowered coverage: %.1f%% -> %.1f%%", short.Coverage, long.Coverage)
	}
	if res.InputSNRdB < 20 || res.InputSNRdB > 100 {
		t.Errorf("input SNR %.1f dB implausible", res.InputSNRdB)
	}
	if res.LSBConfined < 0.3 {
		t.Errorf("only %.0f%% of escapes confined to 5 LSBs", 100*res.LSBConfined)
	}
	if !strings.Contains(res.Format(), "SFDR") {
		t.Error("Format missing input quality")
	}
}

func TestFig6AttributeWalk(t *testing.T) {
	res, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != 5 {
		t.Fatalf("stages = %d", len(res.Stages))
	}
	// Noise must be non-decreasing along the analog chain (up to the
	// filter-out stage where the digital filter only scales tones).
	for i := 1; i < 4; i++ {
		if res.Stages[i].Signal.NoiseRMS+1e-15 < res.Stages[i-1].Signal.NoiseRMS {
			t.Errorf("noise decreased at %v", res.Stages[i].Stage)
		}
	}
	// Amplitude accuracy accumulates monotonically.
	for i := 1; i < len(res.Stages); i++ {
		if res.Stages[i].Signal.AmpAccuracy+1e-15 < res.Stages[i-1].Signal.AmpAccuracy {
			t.Errorf("accuracy shrank at %v", res.Stages[i].Stage)
		}
	}
	if !strings.Contains(res.Format(), "mixer-in") {
		t.Error("Format missing stages")
	}
}

func TestTopOffShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ATPG top-off skipped in -short")
	}
	res, err := TopOff(TopOffOptions{Patterns: 256, Taps: 7, MaxBacktracks: 3000})
	if err != nil {
		t.Fatal(err)
	}
	// The functional campaign's counts are pinned: the ATPG residue
	// below is derived from exactly these undetected faults.
	if res.Detected != 1980 || res.Total != 2188 {
		t.Errorf("functional campaign detected %d/%d, want 1980/2188", res.Detected, res.Total)
	}
	if res.Testable+res.Untestable+res.Aborted+res.Detected != res.Total {
		t.Fatalf("classification does not partition the universe: %+v", res)
	}
	if res.EffectiveCoverage < res.FunctionalCoverage {
		t.Errorf("effective coverage %.1f%% below functional %.1f%%",
			res.EffectiveCoverage, res.FunctionalCoverage)
	}
	if res.BurstsVerified != res.Testable {
		t.Errorf("only %d of %d ATPG bursts verified", res.BurstsVerified, res.Testable)
	}
	if !strings.Contains(res.Format(), "redundant") {
		t.Error("Format missing redundancy row")
	}
}
