package tolerance

import (
	"context"
	"fmt"
	"math/rand"

	"mstx/internal/mcengine"
	"mstx/internal/resilient"
)

// MCOptions configures the Monte-Carlo loss estimation engine.
type MCOptions struct {
	// Workers bounds the worker pool. Defaults to GOMAXPROCS.
	Workers int
	// BatchSize is the per-lane sample count — part of the
	// reproducibility contract (same seed, different BatchSize is a
	// different experiment). Defaults to mcengine.DefaultBatchSize.
	BatchSize int
	// CheckEvery is the early-stop cadence in merged lanes; used only
	// when TargetHalfWidth > 0. Defaults to 4.
	CheckEvery int
	// TargetHalfWidth, when positive, stops the run at the first
	// CheckEvery boundary where the confidence half-widths of BOTH the
	// FCL and YL proportions are at or below it. The stopping decision
	// is taken only on the merged lane prefix at deterministic lane
	// counts, so early-stopped results remain bit-identical at any
	// worker count.
	TargetHalfWidth float64
	// Confidence is the CI level for TargetHalfWidth and the reported
	// half-widths. Defaults to 0.95.
	Confidence float64
	// Checkpoint, when enabled, snapshots the merged tally every
	// Checkpoint.Every merged lanes so a killed run resumes
	// bit-identically (see resilient.Checkpointer).
	Checkpoint *resilient.Checkpointer
	// CheckpointName names this run's snapshot inside Checkpoint.Dir.
	// Defaults to the engine default ("mc"); set it when one command
	// runs several loss estimations against the same directory.
	CheckpointName string
}

func (o MCOptions) normalized() MCOptions {
	if o.BatchSize <= 0 {
		o.BatchSize = mcengine.DefaultBatchSize
	}
	if o.CheckEvery <= 0 {
		o.CheckEvery = 4
	}
	if o.Confidence <= 0 || o.Confidence >= 1 {
		o.Confidence = 0.95
	}
	return o
}

// lossTally is the engine accumulator for loss estimation: pure
// integer counts, so the merge is exact and order-independent. Fields
// are exported because the tally rides inside gob-encoded checkpoint
// snapshots (gob only serializes exported fields); the type itself
// stays package-private.
type lossTally struct {
	Good, Bad, Overkill, Escapes int64
}

func (t lossTally) add(o lossTally) lossTally {
	t.Good += o.Good
	t.Bad += o.Bad
	t.Overkill += o.Overkill
	t.Escapes += o.Escapes
	return t
}

// lossKernel samples count devices on one lane: the true parameter
// from pDist, the measured value adds an errDist draw, classification
// per spec and testLimit. The draw order (p first, then error) is the
// substream contract shared by the serial and parallel paths.
func lossKernel(pDist, errDist Normal, spec, testLimit SpecLimit) mcengine.Kernel[lossTally] {
	return func(_, _, count int, rng *rand.Rand) (lossTally, error) {
		var t lossTally
		for i := 0; i < count; i++ {
			p := pDist.Mean + rng.NormFloat64()*pDist.Sigma
			m := p + errDist.Mean + rng.NormFloat64()*errDist.Sigma
			if spec.Acceptable(p) {
				t.Good++
				if !testLimit.Acceptable(m) {
					t.Overkill++
				}
			} else {
				t.Bad++
				if testLimit.Acceptable(m) {
					t.Escapes++
				}
			}
		}
		return t, nil
	}
}

// estimateFrom turns the merged tally into a LossEstimate with CI
// half-widths at the given z.
func estimateFrom(t lossTally, samples int, z, target float64) LossEstimate {
	est := LossEstimate{Samples: samples}
	if samples > 0 {
		est.GoodFraction = float64(t.Good) / float64(samples)
	}
	if t.Good > 0 {
		est.YL = float64(t.Overkill) / float64(t.Good)
	}
	if t.Bad > 0 {
		est.FCL = float64(t.Escapes) / float64(t.Bad)
	}
	est.FCLHalfWidth = mcengine.ProportionHalfWidth(t.Escapes, t.Bad, z)
	est.YLHalfWidth = mcengine.ProportionHalfWidth(t.Overkill, t.Good, z)
	est.Converged = target > 0 &&
		est.FCLHalfWidth <= target && est.YLHalfWidth <= target
	return est
}

// MonteCarloLosses estimates FCL and YL on the sharded Monte-Carlo
// engine: n samples are split into deterministic lane substreams
// (seed + lane index) and fanned across a bounded worker pool, so the
// result is bit-identical to SerialMonteCarloLosses for any worker
// count. With opts.TargetHalfWidth > 0 the run stops at the first
// CheckEvery boundary where both loss CIs reach the target, and
// LossEstimate.Samples reports the draws actually spent.
//
// Cancellation and deadlines on ctx are honored at lane granularity
// (see mcengine.Run); an interrupted run returns the zero estimate and
// a typed error satisfying resilient.Interrupted.
func MonteCarloLosses(ctx context.Context, pDist, errDist Normal, spec, testLimit SpecLimit, n int, seed int64, opts MCOptions) (LossEstimate, error) {
	if n <= 0 {
		return LossEstimate{}, fmt.Errorf("tolerance: sample count %d must be positive", n)
	}
	o := opts.normalized()
	z := mcengine.ZForConfidence(o.Confidence)
	var stop mcengine.Stop[lossTally]
	if o.TargetHalfWidth > 0 {
		stop = func(t lossTally, samples int) bool {
			return mcengine.ProportionHalfWidth(t.Escapes, t.Bad, z) <= o.TargetHalfWidth &&
				mcengine.ProportionHalfWidth(t.Overkill, t.Good, z) <= o.TargetHalfWidth
		}
	}
	total, done, err := mcengine.Run(ctx, n, seed, mcengine.Options{
		Workers:        o.Workers,
		BatchSize:      o.BatchSize,
		CheckEvery:     o.CheckEvery,
		Checkpoint:     o.Checkpoint,
		CheckpointName: o.CheckpointName,
	}, lossTally{}, lossKernel(pDist, errDist, spec, testLimit),
		func(t lossTally, _ int, p lossTally) lossTally { return t.add(p) }, stop)
	if err != nil {
		return LossEstimate{}, err
	}
	return estimateFrom(total, done, z, o.TargetHalfWidth), nil
}

// SerialMonteCarloLosses is the single-goroutine reference
// implementation of the same substream contract: a plain loop over the
// lane decomposition, with the early-stop check at the same
// CheckEvery boundaries. MonteCarloLosses must be byte-identical to it for any
// worker count — the property the engine's tests pin.
func SerialMonteCarloLosses(pDist, errDist Normal, spec, testLimit SpecLimit, n int, seed int64, opts MCOptions) (LossEstimate, error) {
	if n <= 0 {
		return LossEstimate{}, fmt.Errorf("tolerance: sample count %d must be positive", n)
	}
	o := opts.normalized()
	z := mcengine.ZForConfidence(o.Confidence)
	kernel := lossKernel(pDist, errDist, spec, testLimit)
	lanes := mcengine.Lanes(n, o.BatchSize)
	round := lanes
	if o.TargetHalfWidth > 0 {
		round = o.CheckEvery
	}
	var total lossTally
	done := 0
	for lo := 0; lo < lanes; lo += round {
		hi := lo + round
		if hi > lanes {
			hi = lanes
		}
		for l := lo; l < hi; l++ {
			cnt := o.BatchSize
			if l == lanes-1 {
				cnt = n - l*o.BatchSize
			}
			rng := rand.New(rand.NewSource(mcengine.SubstreamSeed(seed, l)))
			part, err := kernel(0, l, cnt, rng)
			if err != nil {
				return LossEstimate{}, err
			}
			total = total.add(part)
			done += cnt
		}
		if hi < lanes && o.TargetHalfWidth > 0 &&
			mcengine.ProportionHalfWidth(total.Escapes, total.Bad, z) <= o.TargetHalfWidth &&
			mcengine.ProportionHalfWidth(total.Overkill, total.Good, z) <= o.TargetHalfWidth {
			break
		}
	}
	return estimateFrom(total, done, z, o.TargetHalfWidth), nil
}
