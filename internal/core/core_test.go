package core

import (
	"context"
	"math/rand"
	"testing"

	"mstx/internal/campaign"
	"mstx/internal/digital"
	"mstx/internal/dsp"
	"mstx/internal/params"
	"mstx/internal/path"
	"mstx/internal/tolerance"
	"mstx/internal/translate"
)

func newSynth(t testing.TB) *Synthesizer {
	t.Helper()
	coeffs, err := digital.DesignLowPassFIR(13, 0.18, dsp.Hamming)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(path.DefaultSpec(coeffs))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsBadSpec(t *testing.T) {
	coeffs, _ := digital.DesignLowPassFIR(13, 0.18, dsp.Hamming)
	spec := path.DefaultSpec(coeffs)
	spec.SimRate = 0
	if _, err := New(spec); err == nil {
		t.Error("bad spec accepted")
	}
}

func TestSynthesizeAndExecuteNominalDevicePasses(t *testing.T) {
	s := newSynth(t)
	plan, err := s.Synthesize(nil) // default Table 1 requests
	if err != nil {
		t.Fatal(err)
	}
	if plan != s.Plan || len(plan.Tests) == 0 {
		t.Fatal("plan not stored")
	}
	cfg := params.Config{N: 2048, Settle: 256}
	outcomes, err := s.Execute(s.Nominal, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != len(plan.Tests) {
		t.Fatalf("outcomes = %d", len(outcomes))
	}
	for _, o := range outcomes {
		if o.Skipped {
			if o.Test.Kind != translate.Direct {
				t.Errorf("%v skipped but not Direct", o.Test.Request.Param)
			}
			continue
		}
		if !o.Pass {
			t.Errorf("nominal device failed %v: %v", o.Test.Request.Param, o.Result)
		}
	}
}

func TestExecuteRequiresSynthesize(t *testing.T) {
	s := newSynth(t)
	if _, err := s.Execute(s.Nominal, params.DefaultConfig(), nil); err == nil {
		t.Error("Execute without Synthesize accepted")
	}
	if _, err := s.CheckBoundaries(s.Nominal, params.DefaultConfig(), nil); err == nil {
		t.Error("CheckBoundaries without Synthesize accepted")
	}
}

func TestExecuteNilDevice(t *testing.T) {
	s := newSynth(t)
	if _, err := s.Synthesize(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(nil, params.DefaultConfig(), nil); err == nil {
		t.Error("nil device accepted")
	}
}

func TestFaultyDeviceFailsItsParameter(t *testing.T) {
	s := newSynth(t)
	if _, err := s.Synthesize(nil); err != nil {
		t.Fatal(err)
	}
	// A mixer with collapsed IIP3 (soft fault) must fail the IIP3 test.
	device, err := s.Spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	device.Mixer.IIP3DBm = s.Spec.Mixer.IIP3DBm.Nominal - 4
	cfg := params.Config{N: 2048, Settle: 256}
	outcomes, err := s.Execute(device, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if o.Test.Request.Param == params.MixerIIP3 {
			if o.Pass {
				t.Errorf("degraded IIP3 passed: %v", o.Result)
			}
		}
	}
}

func TestCheckBoundariesNominalPasses(t *testing.T) {
	s := newSynth(t)
	if _, err := s.Synthesize(nil); err != nil {
		t.Fatal(err)
	}
	cfg := params.Config{N: 2048, Settle: 256}
	rng := rand.New(rand.NewSource(5))
	res, err := s.CheckBoundaries(s.Nominal, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("boundary results = %d", len(res))
	}
	for i, ok := range res {
		if !ok {
			t.Errorf("nominal device failed boundary check %d", i)
		}
	}
}

func TestBoundaryCheckCatchesMaskedGainError(t *testing.T) {
	// Figure 3: +gain error in the amp masked by -gain errors in the
	// mixer and filter — composite path gain passes, but the
	// high-amplitude boundary check fails on saturation.
	s := newSynth(t)
	if _, err := s.Synthesize(nil); err != nil {
		t.Fatal(err)
	}
	device, err := s.Spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	device.Amp.GainDB += 4
	device.Mixer.ConvGainDB -= 2
	device.LPF.GainDB -= 2
	cfg := params.Config{N: 2048, Settle: 256}
	// Composite gain unchanged.
	g, err := params.MeasurePathGain(device, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Plan.Tests[0].Request.Limit.Acceptable(g.Measured) {
		t.Fatalf("composite gain should still pass: %v", g)
	}
	rng := rand.New(rand.NewSource(6))
	res, err := s.CheckBoundaries(device, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] {
		t.Error("high-amplitude boundary check missed the masked +4 dB amp error")
	}
}

func TestBuildDigitalTestAndSmallCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("gate-level campaign skipped in -short")
	}
	s := newSynth(t)
	opts := DefaultDigitalTestOptions()
	opts.Patterns = 512 // keep the unit test quick
	dt, err := s.BuildDigitalTest(opts)
	if err != nil {
		t.Fatal(err)
	}
	if dt.FIR.Taps() != 13 {
		t.Errorf("taps = %d", dt.FIR.Taps())
	}
	if len(dt.IdealCodes) != 512 || len(dt.RealisticCodes) != 512 {
		t.Fatal("stimulus records wrong length")
	}
	if dt.Detector.FloorPower <= 0 {
		t.Fatal("detector not calibrated")
	}
	exact, _, err := dt.RunExactOpts(context.Background(), campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spectral, _, err := dt.RunSpectralOpts(context.Background(), campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Coverage() < 50 {
		t.Errorf("exact coverage %.1f%% implausibly low", exact.Coverage())
	}
	if spectral.Coverage() > exact.Coverage()+1e-9 {
		t.Errorf("spectral coverage %.1f%% should not exceed exact %.1f%%",
			spectral.Coverage(), exact.Coverage())
	}
}

func TestBuildDigitalTestValidation(t *testing.T) {
	s := newSynth(t)
	opts := DefaultDigitalTestOptions()
	opts.Patterns = 0
	if _, err := s.BuildDigitalTest(opts); err == nil {
		t.Error("zero patterns accepted")
	}
	opts = DefaultDigitalTestOptions()
	opts.CoeffFracBits = 0
	if _, err := s.BuildDigitalTest(opts); err == nil {
		t.Error("bad fracBits accepted")
	}
}

func TestSnapTonesKeepsTonesDistinct(t *testing.T) {
	fs := 32e6
	// Plenty of resolution: both tones land on their own bins.
	f1, f2, err := snapTones(fs, 4096, 0.9e6, 1.1e6)
	if err != nil {
		t.Fatal(err)
	}
	if f1 == f2 {
		t.Fatalf("tones snapped to the same frequency %g", f1)
	}
	// 64-point record: 0.9 and 1.1 MHz both round to bin 2 (bin width
	// 500 kHz); the second tone must be nudged to the adjacent bin.
	f1, f2, err = snapTones(fs, 64, 0.9e6, 1.1e6)
	if err != nil {
		t.Fatal(err)
	}
	binOf := func(f float64) int { return int(f * 64 / fs) }
	if binOf(f1) == binOf(f2) {
		t.Fatalf("collision not resolved: %g and %g on bin %d", f1, f2, binOf(f1))
	}
	if binOf(f2) != binOf(f1)+1 {
		t.Errorf("second tone on bin %d, want adjacent bin %d", binOf(f2), binOf(f1)+1)
	}
	// Swapped order nudges downward instead.
	g1, g2, err := snapTones(fs, 64, 1.1e6, 0.9e6)
	if err != nil {
		t.Fatal(err)
	}
	if binOf(g2) != binOf(g1)-1 {
		t.Errorf("descending tones: second on bin %d, want %d", binOf(g2), binOf(g1)-1)
	}
	// A 4-point record has a single usable bin — no distinct pair
	// exists and the build must refuse rather than degenerate to one
	// tone.
	if _, _, err := snapTones(fs, 4, 0.9e6, 1.1e6); err == nil {
		t.Error("degenerate record accepted")
	}
}

func TestBuildDigitalTestResolvesToneCollision(t *testing.T) {
	if testing.Short() {
		t.Skip("gate-level build skipped in -short")
	}
	s := newSynth(t)
	opts := DefaultDigitalTestOptions()
	// 64 patterns put the default 0.9/1.1 MHz IF pair on the same bin;
	// the build must keep two distinct stimulus tones.
	opts.Patterns = 64
	dt, err := s.BuildDigitalTest(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(dt.ToneFreqs) != 2 || dt.ToneFreqs[0] == dt.ToneFreqs[1] {
		t.Fatalf("degenerate two-tone stimulus: %v", dt.ToneFreqs)
	}
}

func TestExecuteOnSampledDevices(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled-device sweep skipped in -short")
	}
	s := newSynth(t)
	if _, err := s.Synthesize(nil); err != nil {
		t.Fatal(err)
	}
	cfg := params.Config{N: 2048, Settle: 256}
	rng := rand.New(rand.NewSource(7))
	passAll := 0
	n := 6
	for i := 0; i < n; i++ {
		device, err := s.Spec.Sample(rng)
		if err != nil {
			t.Fatal(err)
		}
		outcomes, err := s.Execute(device, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		for _, o := range outcomes {
			if !o.Skipped && !o.Pass {
				ok = false
			}
		}
		if ok {
			passAll++
		}
	}
	// Typical process spread: most (not necessarily all) devices pass.
	if passAll == 0 {
		t.Error("every sampled device failed — losses implausibly high")
	}
}

func TestSynthesizeCustomRequests(t *testing.T) {
	s := newSynth(t)
	reqs := []translate.Request{{
		Param:  params.PathGain,
		Target: "path",
		Limit:  tolerance.BandLimit(19, 23),
		Dist:   tolerance.Normal{Mean: 21, Sigma: 0.7},
	}}
	plan, err := s.Synthesize(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tests) != 1 {
		t.Fatalf("tests = %d", len(plan.Tests))
	}
}
