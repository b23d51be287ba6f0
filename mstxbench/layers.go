package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"mstx/internal/campaign"
	"mstx/internal/core"
	"mstx/internal/dsp"
	"mstx/internal/experiments"
	"mstx/internal/fault"
	"mstx/internal/obs"
	"mstx/internal/params"
	"mstx/internal/server"
	"mstx/internal/soc"
	"mstx/internal/translate"
)

// layerCall is one direct call into a kind's layers on a job's
// (server-normalized) spec, timed from outside, with the engine's
// spans and counters captured in a registry of the benchmark's own.
type layerCall struct {
	Kind string
	// Prepare is the pre-engine step (campaign: default spec + core.New
	// + BuildDigitalTest; soc: soc.Default + soc.Select); Run is the
	// engine call proper.
	Prepare, Run time.Duration
	// Started is when the call began, RegStart when Reg was created
	// (its span offsets are relative to it).
	Started, RegStart time.Time
	Reg               *obs.Registry
	Text              string // formatted like the service's result Text
}

// callLayers runs sp's kind through the public functions the service
// composes, with engine fan-out workers (0 = engine default, as the
// server runs it).
func callLayers(ctx context.Context, sp server.Spec, workers int) (*layerCall, error) {
	lc := &layerCall{Kind: sp.Kind, Started: time.Now()}
	switch sp.Kind {
	case kindCampaign:
		dt, err := buildDigitalTest(sp)
		if err != nil {
			return nil, err
		}
		lc.Prepare = time.Since(lc.Started)
		rctx := lc.registry(ctx)
		t0 := time.Now()
		rep, stats, err := dt.RunSpectralOpts(rctx, campaign.Options{
			SimWorkers: workers, DetectWorkers: workers, Quarantine: true,
		})
		lc.Run = time.Since(t0)
		if err != nil {
			return nil, err
		}
		lc.Text = campaignText(sp.Patterns, rep, stats)
	case kindMC:
		rctx := lc.registry(ctx)
		t0 := time.Now()
		res, err := experiments.Table2(experiments.Table2Options{
			Devices: sp.Devices, Seed: sp.Seed, N: sp.CaptureN, MCSamples: sp.MCSamples,
			Workers: workers, Ctx: rctx,
		})
		lc.Run = time.Since(t0)
		if err != nil {
			return nil, err
		}
		lc.Text = res.Format() + "\n"
	case kindSOC:
		s, err := soc.Default()
		if err == nil {
			s, err = soc.Select(s, sp.Cores)
		}
		if err != nil {
			return nil, err
		}
		lc.Prepare = time.Since(lc.Started)
		rctx := lc.registry(ctx)
		t0 := time.Now()
		scheds, err := soc.PlanSweep(rctx, s, sp.TAMWidths, soc.Options{
			Iterations: sp.Iterations, Seed: sp.Seed, Workers: workers,
		})
		lc.Run = time.Since(t0)
		if err != nil {
			return nil, err
		}
		res := &experiments.SOCResult{SOC: s, Widths: sp.TAMWidths, Schedules: scheds, Seed: sp.Seed, Iterations: sp.Iterations}
		lc.Text = res.Format() + "\n"
	case kindTranslate:
		spec, err := experiments.BuildDefaultSpec()
		if err != nil {
			return nil, err
		}
		method := params.Adaptive
		if sp.Method == "nominal-gains" {
			method = params.NominalGains
		}
		rctx := lc.registry(ctx)
		t0 := time.Now()
		est, err := translate.EstimateReferralError(rctx, spec, params.Kind(sp.Param), method, translate.MCConfig{
			Samples: sp.Samples, Seed: sp.Seed, Workers: workers, BatchSize: sp.BatchSize,
		})
		lc.Run = time.Since(t0)
		if err != nil {
			return nil, err
		}
		lc.Text = fmt.Sprintf(
			"referral error %s [%s]: σ=%.6g mean=%.6g p95=%.6g (analytic σ=%.6g, %d draws)\n",
			sp.Param, sp.Method, est.Sigma, est.Mean, est.P95, est.AnalyticSigma, est.Samples)
	default:
		return nil, fmt.Errorf("unknown kind %q", sp.Kind)
	}
	return lc, nil
}

// registry installs a fresh obs registry on ctx for the engine call.
func (lc *layerCall) registry(ctx context.Context) context.Context {
	lc.Reg = obs.New()
	lc.RegStart = time.Now()
	return obs.WithRegistry(ctx, lc.Reg)
}

// buildDigitalTest is the campaign kind's prepare step: the default
// comm-path spec, its synthesizer and the spectral digital test.
func buildDigitalTest(sp server.Spec) (*core.DigitalTest, error) {
	spec, err := experiments.BuildDefaultSpec()
	if err != nil {
		return nil, err
	}
	synth, err := core.New(spec)
	if err != nil {
		return nil, err
	}
	o := core.DefaultDigitalTestOptions()
	o.Patterns, o.Seed = sp.Patterns, sp.Seed
	return synth.BuildDigitalTest(o)
}

// campaignText formats a clean campaign run the way the service's
// campaign result Text does.
func campaignText(patterns int, rep *fault.Report, stats *campaign.Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "spectral campaign: %d patterns, %d faults, %d detected (%.1f%% coverage)\n",
		patterns, len(rep.Results), rep.Detected(), rep.Coverage())
	fmt.Fprintf(&b, "engine: %d lanes zero-diff screened, %d memoized, %d spectra computed\n",
		stats.Screened, stats.Memoized, stats.Spectra)
	return b.String()
}

// scaling is one engine's serial and parallel time on the same input.
type scaling struct {
	name            string
	serial, par     time.Duration
	workers         int
	sameResultTexts bool
}

func (s scaling) speedup() float64 { return float64(s.serial) / float64(s.par) }

// scalingReps is how many alternating serial/parallel pairs each
// scaling probe times; each side reports its median.
const scalingReps = 3

// scalingProbe times soc.PlanSweep (E9 default), experiments.Table2
// (E6 golden configuration) and RunSpectralOpts (default campaign) at
// Workers 1 and at GOMAXPROCS.
func scalingProbe(ctx context.Context) ([]scaling, error) {
	n := runtime.GOMAXPROCS(0)
	specs := []struct {
		metric string
		spec   server.Spec
	}{
		{"soc.lane_speedup", server.Spec{Kind: kindSOC, TAMWidths: experiments.DefaultTAMWidths, Iterations: soc.DefaultIterations, Seed: experiments.DefaultSOCSeed}},
		{"experiments.table2_speedup", server.Spec{Kind: kindMC, Devices: 6, CaptureN: 1024, MCSamples: 200000}},
		{"campaign.worker_speedup", server.Spec{Kind: kindCampaign, Patterns: 1024, Seed: 1}},
	}
	var out []scaling
	for _, s := range specs {
		var ser, par []float64
		sc := scaling{name: s.metric, workers: n, sameResultTexts: true}
		var text string
		for i := 0; i < scalingReps; i++ {
			for _, w := range []int{1, n} {
				lc, err := callLayers(ctx, s.spec, w)
				if err != nil {
					return nil, fmt.Errorf("%s at %d workers: %w", s.metric, w, err)
				}
				if text == "" {
					text = lc.Text
				}
				sc.sameResultTexts = sc.sameResultTexts && canonicalText(lc.Text) == canonicalText(text)
				if w == 1 {
					ser = append(ser, float64(lc.Run))
				} else {
					par = append(par, float64(lc.Run))
				}
			}
		}
		ms, _ := median(ser)
		mp, _ := median(par)
		sc.serial, sc.par = time.Duration(ms), time.Duration(mp)
		out = append(out, sc)
	}
	return out, nil
}

// spectrumProbe times SpectrumScratch.PowerSpectrum at n = 1024 (Hann)
// and returns the median per-call time in µs over batches, with the
// radix-2 FFT operation count 5·n·log2(n).
func spectrumProbe(seed int64) (us float64, ops float64, err error) {
	const n, batches, perBatch = 1024, 15, 200
	sc, err := dsp.NewSpectrumScratch(n, dsp.Hann)
	if err != nil {
		return 0, 0, err
	}
	rng := rngAt(seed, 5, 0)
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2*math.Pi*0.1*float64(i)) + 0.01*rng.NormFloat64()
	}
	var per []float64
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < perBatch; i++ {
			if _, err := sc.PowerSpectrum(x, 1e6); err != nil {
				return 0, 0, err
			}
		}
		per = append(per, float64(time.Since(t0))/float64(time.Microsecond)/perBatch)
	}
	us, err = median(per)
	return us, 5 * n * math.Log2(n), err
}
