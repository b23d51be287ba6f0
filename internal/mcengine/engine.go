// Package mcengine is the engines' batch executor and the sharded
// Monte-Carlo estimator built on it.
//
// Execute is the one execution primitive: it cuts N items into lanes,
// runs a kernel per lane on a bounded worker pool, and folds the lane
// partials into a running total strictly in ascending lane order, each
// as soon as every lane before it has merged (no round barriers; claims
// stay within 2×Workers lanes of the merged prefix).
// Because the fold order is fixed, the merged result is bit-identical
// for ANY worker count, including one. The same primitive owns the
// robustness contract every engine shares: early stopping on the
// merged prefix every CheckEvery lanes, panic quarantine reported in
// lane order, a checkpoint of the merged prefix every Checkpoint.Every
// merged lanes (and on cancellation, early stop and completion) so a
// killed run resumes bit-identically, cancellation at lane granularity
// with the merged prefix returned under the typed resilient errors,
// the first kernel error in lane order, and one caller-named span.
// The fault, campaign and SOC engines are kernels and merges on it.
//
// Run is Execute plus RNG: every lane draws from its own substream
// seeded by SubstreamSeed(seed, lane), never from which worker ran it
// or when, so a Monte-Carlo estimate — and its confidence-interval
// early stop, which sees only the merged prefix — depends only on
// (seed, BatchSize, CheckEvery). Parallelism is purely a scheduling
// concern and can never change a published number.
package mcengine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mstx/internal/obs"
	"mstx/internal/resilient"
)

// fpLane is the failpoint evaluated before every lane's kernel call;
// tests arm it to inject lane errors, panics and delays.
var fpLane = resilient.Site("mcengine.lane")

// DefaultBatchSize is the per-lane sample count when Options.BatchSize
// is zero: large enough that RNG setup and scheduling are noise,
// small enough that early stopping has useful granularity.
const DefaultBatchSize = 8192

// Options configures a Run.
type Options struct {
	// Workers bounds the worker pool. Defaults to GOMAXPROCS.
	Workers int
	// BatchSize is the number of samples per lane (the substream
	// granularity). It is part of the reproducibility contract: the
	// same seed with a different BatchSize is a different experiment.
	// Defaults to DefaultBatchSize.
	BatchSize int
	// CheckEvery is the early-stop cadence: the stop predicate runs
	// each time the merged prefix reaches a multiple of CheckEvery
	// lanes. Zero (or a nil stop predicate) disables early stopping.
	CheckEvery int
	// Checkpoint, when enabled, snapshots the merged prefix (total,
	// sample count, next lane) every Checkpoint.Every merged lanes and
	// at completion — and, with Resume set, restores it at the next Run
	// so a killed run continues from the last snapshot and produces a
	// bit-identical final result.
	Checkpoint *resilient.Checkpointer
	// CheckpointName names this run's snapshot inside Checkpoint.Dir
	// (several engine runs can share one directory). Default "mc".
	CheckpointName string
	// Ident extends the snapshot's run identity beyond the seed with
	// whatever else the kernel's result depends on (a per-lane
	// budget, say): a snapshot resumes only when seed and Ident both
	// match.
	Ident string
	// OnQuarantine, when non-nil, turns a panicking kernel lane into a
	// quarantined lane: the panic is recovered, OnQuarantine receives
	// the lane, its sample count and the *resilient.PanicError (in lane
	// order, at merge time), the lane contributes nothing to the
	// merge, and the run continues. When nil, the recovered panic is
	// returned as an ordinary run error — the process never crashes
	// either way.
	OnQuarantine func(lane, samples int, err error)
}

func (o Options) withDefaults() Options {
	o.Workers = WorkerCount(o.Workers)
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	return o
}

// WorkerCount is the pool size of a Run with Options.Workers n: n, or
// GOMAXPROCS when n ≤ 0. Every Kernel worker index is below it, so a
// caller sizes its per-worker scratch by it.
func WorkerCount(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// SubstreamSeed derives the RNG seed of one lane from the run seed by
// a splitmix64 mix (Steele et al.), so neighbouring lanes get
// decorrelated streams and lane 0 never equals the raw run seed.
func SubstreamSeed(seed int64, lane int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(lane+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Lanes returns the number of lanes an n-sample run occupies at the
// given batch size.
func Lanes(n, batchSize int) int {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return (n + batchSize - 1) / batchSize
}

// Kernel computes one lane's partial result: count samples drawn from
// the lane's private substream rng. worker (0 ≤ worker < Workers)
// identifies the calling goroutine, so a kernel can index per-worker
// scratch without locking; the result must not depend on it. Beyond
// such scratch, a kernel must not touch shared mutable state, and it
// must not keep rng past its return: the worker reseeds it for its
// next lane.
type Kernel[P any] func(worker, lane, count int, rng *rand.Rand) (P, error)

// Merge folds one lane's partial into the running total. The engine
// guarantees calls in strictly ascending lane order, so even
// non-commutative (e.g. floating-point) merges are deterministic.
type Merge[T, P any] func(total T, lane int, part P) T

// Stop is consulted every CheckEvery merged lanes with the merged
// prefix total and the number of samples it covers; returning true
// ends the run early.
type Stop[T any] func(total T, samples int) bool

// Run executes an n-sample Monte-Carlo estimation and returns the
// merged total together with the number of samples actually processed
// (less than n only when the stop predicate fired). The zero total is
// the caller's initial accumulator value.
//
// Cancellation is honored at lane granularity: when ctx is canceled
// (or its deadline expires) the engine stops claiming lanes and
// returns the merged prefix and its sample count together with a
// typed error satisfying errors.Is(err, resilient.ErrCanceled) or
// resilient.ErrDeadline. Kernel errors keep the original contract: a
// zero total and the first failing lane's error, in lane order.
func Run[T, P any](ctx context.Context, n int, seed int64, opts Options, total T, kernel Kernel[P], merge Merge[T, P], stop Stop[T]) (T, int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return total, 0, fmt.Errorf("mcengine: sample count %d must be positive", n)
	}
	if kernel == nil || merge == nil {
		return total, 0, fmt.Errorf("mcengine: nil kernel or merge")
	}
	o := opts.withDefaults()
	name := o.CheckpointName
	if name == "" {
		name = "mc"
	}
	ident := fmt.Sprintf("seed=%d", seed)
	if o.Ident != "" {
		ident += " " + o.Ident
	}
	// Instrumentation counts only what the merge and stop callbacks
	// see; the executor serializes both, so plain ints suffice.
	reg := obs.For(ctx)
	var (
		lanes, rounds int
		stopped       bool
		mergeHist     *obs.Histogram
		start         time.Time
	)
	if reg != nil {
		mergeHist = reg.Histogram("mc_merge_seconds", 0, 1, 64)
		start = time.Now()
	}
	// One generator per worker, reseeded for each lane: Seed restarts
	// the source exactly as a new one, without allocating it.
	rngs := make([]*rand.Rand, min(o.Workers, Lanes(n, o.BatchSize)))
	p := Plan[T, P]{
		Span: "mcengine.run", N: n, BatchSize: o.BatchSize, Workers: o.Workers,
		CheckEvery: o.CheckEvery, Checkpoint: o.Checkpoint, CheckpointName: name,
		Ident: ident,
		Kernel: func(w, lane, count int) (P, error) {
			var part P
			err := resilient.Fire(fpLane)
			if err == nil {
				rng := rngs[w]
				if rng == nil {
					rng = rand.New(rand.NewSource(SubstreamSeed(seed, lane)))
					rngs[w] = rng
				} else {
					rng.Seed(SubstreamSeed(seed, lane))
				}
				part, err = kernel(w, lane, count, rng)
			}
			if err != nil {
				return part, fmt.Errorf("mcengine: lane %d: %w", lane, err)
			}
			return part, nil
		},
		Merge: func(t T, lane int, part P) T {
			lanes++
			if mergeHist != nil {
				t0 := time.Now()
				t = merge(t, lane, part)
				mergeHist.Observe(time.Since(t0).Seconds())
				return t
			}
			return merge(t, lane, part)
		},
	}
	if stop != nil {
		p.Stop = func(t T, samples int) bool {
			rounds++
			stopped = stop(t, samples)
			return stopped
		}
	}
	if o.OnQuarantine != nil {
		p.Quarantine = func(t T, lane, count int, err error) T {
			o.OnQuarantine(lane, count, err)
			return t
		}
	}

	total, done, err := Execute(ctx, p, total)
	if !stopped {
		rounds++ // the final (or only) stretch after the last check
	}
	if reg != nil {
		reg.Counter("mc_runs_total").Inc()
		reg.Counter("mc_rounds_total").Add(int64(rounds))
		reg.Counter("mc_lanes_total").Add(int64(lanes))
		reg.Counter("mc_samples_total").Add(int64(done))
		if stopped {
			reg.Counter("mc_early_stops_total").Inc()
			reg.Gauge("mc_early_stop_round").Set(float64(rounds))
		}
		if wall := time.Since(start).Seconds(); wall > 0 {
			reg.Gauge("mc_samples_per_sec").Set(float64(done) / wall)
		}
	}
	if err != nil && !resilient.Interrupted(err) {
		var zero T
		return zero, done, err
	}
	return total, done, err
}
