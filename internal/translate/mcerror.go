package translate

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"mstx/internal/mcengine"
	"mstx/internal/obs"
	"mstx/internal/params"
	"mstx/internal/path"
	"mstx/internal/resilient"
	"mstx/internal/tolerance"
)

// captureRepeatabilityDB is the measured 1σ repeatability of a single
// 4096-point gain capture (quantization plus converter noise) — the
// residual the adaptive strategy pays for measuring the path gain
// instead of trusting nominals. planOne budgets the same number.
const captureRepeatabilityDB = 0.05

// Ratiometric cut-off sweep residual model: the −3 dB crossing is read
// off a level-ratio curve, so per-capture level noise maps to a corner
// shift through the Butterworth slope at fc, the bisection lands on a
// finite sweep grid, and in-band ripple misplaces the reference level.
const (
	// cutoffSlopeDBPerRel is |d|H|dB/d(f/fc)| of the 2nd-order
	// Butterworth at f = fc: 20/ln10 ≈ 8.686 dB per unit f/fc.
	cutoffSlopeDBPerRel = 20 / math.Ln10
	// cutoffGridHalfFrac is the half-width of the final sweep grid
	// cell as a fraction of fc (uniform quantization residual).
	cutoffGridHalfFrac = 0.0125
	// cutoffRippleSigmaFrac is the 1σ reference-level ripple and IF
	// placement residual as a fraction of fc.
	cutoffRippleSigmaFrac = 0.009
)

// Draw is one Monte-Carlo realization of every toleranced quantity a
// propagation referral depends on. Gain deviations are in dB about
// the spec nominals; the cut-off terms are in the units noted.
type Draw struct {
	// EpsAmpDB, EpsMixDB, EpsLPFDB are the realized block gain
	// deviations (device process spread), dB.
	EpsAmpDB, EpsMixDB, EpsLPFDB float64
	// EpsCapDB is the path-gain capture repeatability draw, dB.
	EpsCapDB float64
	// EpsCap2DB is the second capture draw of a ratiometric pair, dB.
	EpsCap2DB float64
	// GridFrac is the sweep-grid quantization residual as a fraction
	// of fc (uniform in ±cutoffGridHalfFrac).
	GridFrac float64
	// RippleFrac is the reference-level ripple residual as a fraction
	// of fc.
	RippleFrac float64
}

// sampleDraw realizes one Draw from the spec's tolerances. The draw
// order is fixed — it is part of the substream contract.
func sampleDraw(sp *path.Spec, rng *rand.Rand) Draw {
	return Draw{
		EpsAmpDB:   rng.NormFloat64() * sp.Amp.GainDB.Sigma,
		EpsMixDB:   rng.NormFloat64() * sp.Mixer.ConvGainDB.Sigma,
		EpsLPFDB:   rng.NormFloat64() * sp.LPF.GainDB.Sigma,
		EpsCapDB:   rng.NormFloat64() * captureRepeatabilityDB,
		EpsCap2DB:  rng.NormFloat64() * captureRepeatabilityDB,
		GridFrac:   (rng.Float64()*2 - 1) * cutoffGridHalfFrac,
		RippleFrac: rng.NormFloat64() * cutoffRippleSigmaFrac,
	}
}

// DeviceDraw extracts the realized gain deviations of a manufactured
// device instance — the Draw a real tester faces, with the
// measurement-noise terms zeroed (they are the tester's, not the
// device's).
func DeviceDraw(device *path.Path) Draw {
	return Draw{
		EpsAmpDB: device.Amp.GainDB - device.Spec.Amp.GainDB.Nominal,
		EpsMixDB: device.Mixer.ConvGainDB - device.Spec.Mixer.ConvGainDB.Nominal,
		EpsLPFDB: device.LPF.GainDB - device.Spec.LPF.GainDB.Nominal,
	}
}

// referralTerms returns the signed error contributions of one
// realization for a propagation-translated parameter/method: the
// block parameter is referred to the primary input through the ACTUAL
// toleranced gains and recovered through the gains the method assumes
// (nominals, or the measured path gain for Adaptive), so each term is
// a gain deviation the recovery cannot see. Units: dB for IIP3 and
// P1dB, Hz (about the nominal corner) for LPFCutoff. The terms are
// terms[:n]; a fixed array keeps the per-draw kernel allocation-free.
func referralTerms(sp *path.Spec, param params.Kind, method params.Method, d *Draw) (terms [3]float64, n int, err error) {
	switch param {
	case params.MixerIIP3:
		if method == params.Adaptive {
			// Path gain measured: only the amp's share of the referral
			// and the capture noise survive the round trip.
			return [3]float64{d.EpsAmpDB, d.EpsCapDB}, 2, nil
		}
		// Nominal gains: the mixer and filter deviations between the
		// mixer output and the observation point go unobserved.
		return [3]float64{d.EpsMixDB, d.EpsLPFDB}, 2, nil
	case params.MixerP1dB:
		if method == params.Adaptive {
			return [3]float64{d.EpsMixDB, d.EpsLPFDB, d.EpsCapDB}, 3, nil
		}
		// Nominal amp gain refers the PI drive level to the mixer.
		return [3]float64{d.EpsAmpDB}, 1, nil
	case params.LPFCutoff:
		fc := sp.LPF.CutoffHz.Nominal
		return [3]float64{
			fc * (d.EpsCapDB - d.EpsCap2DB) / cutoffSlopeDBPerRel,
			fc * d.GridFrac,
			fc * d.RippleFrac,
		}, 3, nil
	default:
		return terms, 0, fmt.Errorf("translate: %q is not a propagation-referral parameter", param)
	}
}

// referralSum is the one referral kernel: the sum of the realization's
// terms in order, of their magnitudes when abs is set.
func referralSum(sp *path.Spec, param params.Kind, method params.Method, d *Draw, abs bool) (float64, error) {
	terms, n, err := referralTerms(sp, param, method, d)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, t := range terms[:n] {
		if abs {
			t = math.Abs(t)
		}
		s += t
	}
	return s, nil
}

// ReferralError is the signed forward-and-back referral error of one
// realization (the sum of the unobserved terms).
func ReferralError(sp path.Spec, param params.Kind, method params.Method, d Draw) (float64, error) {
	return referralSum(&sp, param, method, &d, false)
}

// ReferralBound is the per-realization worst-case budget of the same
// decomposition — the triangle-inequality sum of the terms' magnitudes.
// Every ReferralError satisfies |err| ≤ ReferralBound for the same
// Draw; the round-trip property tests pin that no error term is
// missing from the budget.
func ReferralBound(sp path.Spec, param params.Kind, method params.Method, d Draw) (float64, error) {
	return referralSum(&sp, param, method, &d, true)
}

// AnalyticReferralSigma is the planner's closed-form RSS budget for
// the same model — what planOne charges, and the oracle the
// Monte-Carlo estimate is validated against.
func AnalyticReferralSigma(sp path.Spec, param params.Kind, method params.Method) (float64, error) {
	sa := sp.Amp.GainDB.Sigma
	sm := sp.Mixer.ConvGainDB.Sigma
	sb := sp.LPF.GainDB.Sigma
	switch param {
	case params.MixerIIP3:
		if method == params.Adaptive {
			return tolerance.RSS(sa, captureRepeatabilityDB), nil
		}
		return tolerance.RSS(sm, sb), nil
	case params.MixerP1dB:
		if method == params.Adaptive {
			return tolerance.RSS(sm, sb, captureRepeatabilityDB), nil
		}
		return sa, nil
	case params.LPFCutoff:
		fc := sp.LPF.CutoffHz.Nominal
		return fc * tolerance.RSS(
			math.Sqrt2*captureRepeatabilityDB/cutoffSlopeDBPerRel,
			cutoffGridHalfFrac/math.Sqrt(3), // uniform ±g → σ = g/√3
			cutoffRippleSigmaFrac,
		), nil
	default:
		return 0, fmt.Errorf("translate: %q is not a propagation-referral parameter", param)
	}
}

// ErrEstimate summarizes a Monte-Carlo referral-error study.
type ErrEstimate struct {
	// Sigma is the estimated 1σ referral error, parameter units.
	Sigma float64
	// Mean is the systematic bias (the tester calibrates it out).
	Mean float64
	// P95 is the 95th percentile of |error|.
	P95 float64
	// Samples is the number of realizations.
	Samples int
	// AnalyticSigma is the planner's RSS budget for comparison.
	AnalyticSigma float64
}

// MCConfig configures a referral-error Monte Carlo.
type MCConfig struct {
	// Samples is the realization count. Default 100000.
	Samples int
	// Seed drives the deterministic lane substreams.
	Seed int64
	// Workers and BatchSize are passed to the engine (zero = engine
	// defaults).
	Workers, BatchSize int
	// Checkpoint, when enabled, snapshots the merged accumulator every
	// Checkpoint.Every merged lanes so a killed refinement resumes
	// bit-identically.
	Checkpoint *resilient.Checkpointer
	// CheckpointName names this run's snapshot inside Checkpoint.Dir.
	// Defaults to the engine default ("mc"); RefineErrSigmaMC derives a
	// per-test name automatically.
	CheckpointName string
}

// refPartial is the engine accumulator: streaming moments of the
// signed error plus a quantile sketch of |error|. Fields are exported
// because the accumulator rides inside gob-encoded checkpoint
// snapshots; the type itself stays package-private.
type refPartial struct {
	MV   mcengine.MeanVar
	Hist *mcengine.Histogram
}

// EstimateReferralError runs the referral-error model of one
// propagation-translated parameter/method on the sharded Monte-Carlo
// engine. The result is bit-identical for any worker count.
//
// Cancellation and deadlines on ctx are honored at lane granularity
// (see mcengine.Run); an interrupted run returns the zero estimate and
// a typed error satisfying resilient.Interrupted.
func EstimateReferralError(ctx context.Context, sp path.Spec, param params.Kind, method params.Method, cfg MCConfig) (ErrEstimate, error) {
	an, err := AnalyticReferralSigma(sp, param, method)
	if err != nil {
		return ErrEstimate{}, err
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 100000
	}
	histHi := 8 * an
	if histHi <= 0 {
		return ErrEstimate{}, fmt.Errorf("translate: zero analytic budget for %s/%s", param, method)
	}
	kernel := func(_, _, count int, rng *rand.Rand) (refPartial, error) {
		h, err := mcengine.NewHistogram(0, histHi, 512)
		if err != nil {
			return refPartial{}, err
		}
		p := refPartial{Hist: h}
		for i := 0; i < count; i++ {
			d := sampleDraw(&sp, rng)
			e, err := referralSum(&sp, param, method, &d, false)
			if err != nil {
				return refPartial{}, err
			}
			p.MV.Observe(e)
			p.Hist.Observe(math.Abs(e))
		}
		return p, nil
	}
	merge := func(total refPartial, _ int, part refPartial) refPartial {
		total.MV.Merge(part.MV)
		if total.Hist == nil {
			total.Hist = part.Hist
		} else if err := total.Hist.MergeHist(part.Hist); err != nil {
			// Geometry is fixed above; a mismatch is a programming
			// error, not a data condition.
			panic(err)
		}
		return total
	}
	total, done, err := mcengine.Run(ctx, cfg.Samples, cfg.Seed, mcengine.Options{
		Workers: cfg.Workers, BatchSize: cfg.BatchSize,
		Checkpoint: cfg.Checkpoint, CheckpointName: cfg.CheckpointName,
	}, refPartial{}, kernel, merge, nil)
	if err != nil {
		return ErrEstimate{}, err
	}
	if reg := obs.For(ctx); reg != nil {
		reg.Counter("translate_mc_draws_total").Add(int64(done))
	}
	return ErrEstimate{
		Sigma:         total.MV.Std(),
		Mean:          total.MV.Mean,
		P95:           total.Hist.Quantile(0.95),
		Samples:       done,
		AnalyticSigma: an,
	}, nil
}

// RefineErrSigmaMC re-estimates the error budgets of the plan's
// propagation-translated tests (mixer IIP3 and P1dB, filter cut-off)
// on the Monte-Carlo engine and recomputes their loss sweeps from the
// refined sigmas. Direct tests and composition tests are untouched.
//
// Cancellation and deadlines on ctx are honored mid-estimation; the
// plan is left with the tests refined so far and the typed
// interruption error is returned. With cfg.Checkpoint enabled each
// test checkpoints under its own derived name, so a killed refinement
// resumes from the last completed round of the test it died in.
func RefineErrSigmaMC(ctx context.Context, p *path.Path, plan *Plan, cfg MCConfig) error {
	if p == nil || plan == nil {
		return fmt.Errorf("translate: nil path or plan")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Observability: one parent span for the refinement pass, one
	// child span per refined test — all no-ops when disabled.
	reg := obs.For(ctx)
	refineCtx := ctx
	var refineSp *obs.SpanHandle
	if reg != nil {
		refineCtx, refineSp = reg.Span(refineCtx, "translate.mc_refine")
		defer refineSp.End()
	}
	for i := range plan.Tests {
		t := &plan.Tests[i]
		if t.Kind != Propagation {
			continue
		}
		switch t.Request.Param {
		case params.MixerIIP3, params.MixerP1dB, params.LPFCutoff:
		default:
			continue
		}
		c := cfg
		c.Seed = mcengine.SubstreamSeed(cfg.Seed, i) // independent per test
		if c.Checkpoint.Enabled() {
			c.CheckpointName = fmt.Sprintf("refine_%d_%s", i, t.Request.Param)
		}
		var testSp *obs.SpanHandle
		if reg != nil {
			_, testSp = reg.Span(refineCtx, "translate.refine."+string(t.Request.Param))
		}
		est, err := EstimateReferralError(ctx, p.Spec, t.Request.Param, t.Method, c)
		testSp.End()
		if err != nil {
			return err
		}
		t.ErrSigma = est.Sigma
		t.Reason += fmt.Sprintf("; MC-refined σ over %d draws", est.Samples)
		wc := tolerance.WorstCaseErr(est.Sigma)
		t.Losses = tolerance.ThresholdSweep(t.Request.Dist, est.Sigma, wc, t.Request.Limit)
	}
	return nil
}
