// Package fault provides the stuck-at fault-simulation engine for
// gate-level FIR filters: fault-universe management, 63-fault-per-pass
// parallel simulation over sample records, exact (output-compare)
// detection with fault dropping, full per-fault output-record capture
// for spectral testing, and coverage accounting. The batch passes run
// on mcengine.Execute: one 63-fault batch per lane, detected with the
// worker's own detector and copied into the report in batch order.
package fault

import (
	"context"
	"fmt"
	"runtime"

	"mstx/internal/digital"
	"mstx/internal/mcengine"
	"mstx/internal/netlist"
	"mstx/internal/obs"
	"mstx/internal/resilient"
)

// fpBatch is the failpoint evaluated before every simulation batch;
// the chaos suite arms it to inject batch errors, panics and delays.
var fpBatch = resilient.Site("fault.batch")

// lanesPerBatch is the simulator's fault-lane capacity: 64 bit-lanes
// with lane 0 reserved for the good machine.
const lanesPerBatch = 63

// Universe holds a fault list for a FIR circuit together with the
// bookkeeping needed for reports.
type Universe struct {
	// FIR is the circuit under test.
	FIR *digital.FIR
	// Faults is the fault list being simulated.
	Faults []netlist.Fault
	// Collapsed records whether structural equivalence collapsing was
	// applied.
	Collapsed bool
}

// NewUniverse enumerates the single-stuck-at universe of the FIR,
// optionally collapsed by structural equivalence.
func NewUniverse(f *digital.FIR, collapse bool) *Universe {
	all := netlist.AllFaults(f.Circuit)
	if collapse {
		all = netlist.CollapseFaults(f.Circuit, all)
	}
	return &Universe{FIR: f, Faults: all, Collapsed: collapse}
}

// Size returns the number of faults in the universe.
func (u *Universe) Size() int { return len(u.Faults) }

// Result is the outcome of simulating one fault.
type Result struct {
	// Fault is the simulated fault.
	Fault netlist.Fault
	// Detected reports whether the detection predicate fired.
	Detected bool
	// FirstDiff is the sample index of the first output difference, or
	// -1 when the faulty record equals the good record.
	FirstDiff int
	// MaxAbsDiff is the largest |faulty - good| output difference.
	MaxAbsDiff int64
	// Tap is the index of the tap whose cone contains the fault site,
	// or -1 for the shared sum tree.
	Tap int
	// Quarantined marks a fault whose simulation batch panicked while
	// quarantine was enabled: the panic was recovered, the batch was
	// excluded, and the campaign continued. A quarantined fault is
	// never counted as detected — its verdict is unknown, not clean.
	Quarantined bool
}

// Report aggregates a fault-simulation campaign.
type Report struct {
	// Results holds one entry per fault, in universe order.
	Results []Result
	// Patterns is the record length simulated.
	Patterns int
}

// Detected returns the number of detected faults.
func (r *Report) Detected() int {
	n := 0
	for _, res := range r.Results {
		if res.Detected {
			n++
		}
	}
	return n
}

// Quarantined returns the number of quarantined faults — batches whose
// worker panicked and was isolated rather than crashing the campaign.
func (r *Report) Quarantined() int {
	n := 0
	for _, res := range r.Results {
		if res.Quarantined {
			n++
		}
	}
	return n
}

// Coverage returns the fault coverage in percent.
func (r *Report) Coverage() float64 {
	if len(r.Results) == 0 {
		return 0
	}
	return 100 * float64(r.Detected()) / float64(len(r.Results))
}

// Undetected returns the undetected faults.
func (r *Report) Undetected() []netlist.Fault {
	var out []netlist.Fault
	for _, res := range r.Results {
		if !res.Detected {
			out = append(out, res.Fault)
		}
	}
	return out
}

// UndetectedResults returns the Result entries for undetected faults.
func (r *Report) UndetectedResults() []Result {
	var out []Result
	for _, res := range r.Results {
		if !res.Detected {
			out = append(out, res)
		}
	}
	return out
}

// String summarizes the report.
func (r *Report) String() string {
	return fmt.Sprintf("%d/%d faults detected (%.1f%%) with %d patterns",
		r.Detected(), len(r.Results), r.Coverage(), r.Patterns)
}

// Detector decides, given the good and faulty output records, whether
// the fault is considered detected. ExactDetector is the ideal-input
// case; package spectest provides the spectral detector used when the
// stimulus arrives through a noisy analog front end. A detector error
// aborts the campaign: a verdict the detector could not actually reach
// must fail loudly rather than be counted as an undetected fault and
// silently skew coverage.
type Detector interface {
	// Detect reports whether the faulty record is distinguishable from
	// the good record.
	Detect(good, faulty []int64) (bool, error)
}

// WorkerDetector is implemented by detectors that keep reusable
// per-goroutine scratch state (spectest.Detector is the one in-tree):
// NewWorkerDetect returns a Detect-shaped function bound to a fresh
// scratch for exclusive use by one worker goroutine, with verdicts
// bit-identical to Detect's. Simulate and SerialSimulate detect
// through it when available, so the per-record spectral path allocates
// nothing in steady state instead of rebuilding window tables and FFT
// buffers per fault.
type WorkerDetector interface {
	Detector
	NewWorkerDetect() (func(good, faulty []int64) (bool, error), error)
}

// detectFunc adapts a bound worker-detect function back into the
// Detector interface the batch code consumes.
type detectFunc func(good, faulty []int64) (bool, error)

// Detect implements Detector.
func (f detectFunc) Detect(good, faulty []int64) (bool, error) { return f(good, faulty) }

// workerDetector returns a detector for one worker goroutine: a
// scratch-bound instance when det supports it, det itself otherwise.
func workerDetector(det Detector) (Detector, error) {
	wd, ok := det.(WorkerDetector)
	if !ok {
		return det, nil
	}
	fn, err := wd.NewWorkerDetect()
	if err != nil {
		return nil, err
	}
	return detectFunc(fn), nil
}

// ExactDetector declares a fault detected when any output sample
// differs by more than Threshold LSBs (0 = any difference). This is
// the classical known-input, known-output digital test assumption.
type ExactDetector struct {
	// Threshold is the per-sample absolute difference that must be
	// exceeded. Zero detects any difference.
	Threshold int64
}

// Detect implements Detector.
func (d ExactDetector) Detect(good, faulty []int64) (bool, error) {
	for i := range good {
		diff := faulty[i] - good[i]
		if diff < 0 {
			diff = -diff
		}
		if diff > d.Threshold {
			return true, nil
		}
	}
	return false, nil
}

// DiffStats returns the sample index of the first difference between
// the good and faulty records (-1 when identical) and the largest
// absolute difference. It is the shared diff accounting of the batch,
// serial, and campaign engines — the campaign zero-diff screen keys
// off maxAbs == 0.
func DiffStats(good, faulty []int64) (firstDiff int, maxAbs int64) {
	firstDiff = -1
	for n := range good {
		d := faulty[n] - good[n]
		if d < 0 {
			d = -d
		}
		if d > 0 && firstDiff < 0 {
			firstDiff = n
		}
		if d > maxAbs {
			maxAbs = d
		}
	}
	return firstDiff, maxAbs
}

// SimOptions configures a resilient Simulate run. The zero value is
// the plain campaign: no checkpointing, no quarantine, GOMAXPROCS
// workers.
type SimOptions struct {
	// Workers bounds the batch pool. Defaults to GOMAXPROCS.
	Workers int
	// Checkpoint, when enabled, snapshots the merged batch prefix (the
	// results of every batch merged so far) every Checkpoint.Every
	// merged batches, so a killed campaign resumes instead of
	// restarting.
	Checkpoint *resilient.Checkpointer
	// CheckpointName names this campaign's snapshot inside
	// Checkpoint.Dir. Default "fault".
	CheckpointName string
	// Quarantine recovers a panicking simulation batch, marks its
	// faults Quarantined in the Report, and continues the campaign.
	// Without it the recovered panic aborts the run as an ordinary
	// error — the process never crashes either way.
	Quarantine bool
}

// recordHash is FNV-1a over the record words — the cheap identity
// check that guards checkpoint resume against a different stimulus.
func recordHash(xs []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range xs {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// Simulate runs every fault in the universe against the input record
// xs — treated as one period of a periodic (coherent) stimulus, so the
// delay line is warmed and records are steady-state — and applies the
// detector to each (good, faulty) record pair.
// Faults are packed 63 per simulator pass (lane 0 is the good
// machine); batches run concurrently on all CPUs. The good and faulty
// records are exact gate-level outputs.
//
// Cancellation and deadlines on ctx are honored at batch granularity:
// an interrupted run returns the partial Report (the merged prefix of
// batches carries its verdicts; the rest keep the fault identity with
// FirstDiff -1 and no verdict) together with a typed error satisfying
// errors.Is(err, resilient.ErrCanceled) or resilient.ErrDeadline.
func Simulate(ctx context.Context, u *Universe, xs []int64, det Detector) (*Report, error) {
	return SimulateOpts(ctx, u, xs, det, SimOptions{})
}

// SimulateOpts is Simulate with the resilience knobs exposed:
// checkpoint/resume over the merged batch prefix and panic quarantine.
// The Report is bit-identical to Simulate's for any worker count and
// any kill/resume split — batch b's results depend only on (universe,
// xs, b), never on scheduling.
func SimulateOpts(ctx context.Context, u *Universe, xs []int64, det Detector, opts SimOptions) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("fault: empty input record")
	}
	if det == nil {
		return nil, fmt.Errorf("fault: nil detector")
	}
	nf := len(u.Faults)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if nBatches := (nf + lanesPerBatch - 1) / lanesPerBatch; workers > nBatches {
		workers = nBatches // the executor clamps its pool the same way
	}
	// One detector per pool worker: scratch-backed when the detector
	// supports it (the spectral record → spectrum → screen path is then
	// allocation-free in steady state), det itself otherwise.
	workerDets := make([]Detector, workers)
	for w := range workerDets {
		d, err := workerDetector(det)
		if err != nil {
			return nil, err
		}
		workerDets[w] = d
	}
	ckName := opts.CheckpointName
	if ckName == "" {
		ckName = "fault"
	}
	plan := mcengine.Plan[[]Result, []Result]{
		Span: "fault.simulate", N: nf, BatchSize: lanesPerBatch, Workers: workers,
		Checkpoint: opts.Checkpoint, CheckpointName: ckName,
		Ident: fmt.Sprintf("patterns=%d stim=%016x", len(xs), recordHash(xs)),
		Kernel: func(w, lane, count int) ([]Result, error) {
			if err := resilient.Fire(fpBatch); err != nil {
				return nil, err
			}
			lo := lane * lanesPerBatch
			out := make([]Result, count)
			return out, simulateBatch(u, xs, workerDets[w], out, u.Faults[lo:lo+count])
		},
		Merge: func(results []Result, lane int, part []Result) []Result {
			copy(results[lane*lanesPerBatch:], part)
			return results
		},
	}
	if opts.Quarantine {
		// A quarantined batch keeps its faults' bare identity, marked.
		plan.Quarantine = func(results []Result, lane, count int, _ error) []Result {
			for i := lane * lanesPerBatch; i < lane*lanesPerBatch+count; i++ {
				results[i].Quarantined = true
			}
			return results
		}
	}
	// Prefill the fault identity so partial (canceled) and quarantined
	// entries still say WHICH fault they cover.
	results := make([]Result, nf)
	for i, f := range u.Faults {
		results[i] = Result{Fault: f, Tap: u.FIR.TapOfNet(f.Net), FirstDiff: -1}
	}
	results, _, err := mcengine.Execute(ctx, plan, results)
	rep := &Report{Results: results, Patterns: len(xs)}
	if err != nil {
		if resilient.Interrupted(err) {
			return rep, err
		}
		return nil, err
	}
	if reg := obs.For(ctx); reg != nil {
		reg.Counter("fault_sim_runs_total").Inc()
		reg.Counter("fault_sim_faults_total").Add(int64(nf))
		reg.Counter("fault_sim_batches_total").Add(int64((nf + lanesPerBatch - 1) / lanesPerBatch))
		if q := rep.Quarantined(); q > 0 {
			reg.Counter("fault_sim_quarantined_total").Add(int64(q))
		}
	}
	return rep, nil
}

// simulateBatch simulates up to 63 faults in one pass and fills out.
func simulateBatch(u *Universe, xs []int64, det Detector, out []Result, faults []netlist.Fault) error {
	sim := digital.NewFIRSim(u.FIR)
	for i, f := range faults {
		if err := sim.InjectFault(f, 1<<uint(i+1)); err != nil {
			return err
		}
	}
	lanes, err := sim.RunLanesPeriodic(xs, len(faults)+1)
	if err != nil {
		return err
	}
	good := lanes[0]
	for i, f := range faults {
		faulty := lanes[i+1]
		res := Result{
			Fault: f,
			Tap:   u.FIR.TapOfNet(f.Net),
		}
		res.FirstDiff, res.MaxAbsDiff = DiffStats(good, faulty)
		res.Detected, err = det.Detect(good, faulty)
		if err != nil {
			return err
		}
		out[i] = res
	}
	return nil
}

// Records captures the full good and per-fault output records for the
// given faults (at most 63) in a single pass. Spectral detection needs
// whole records to transform; callers batch larger universes
// themselves or use Simulate.
func Records(u *Universe, xs []int64, faults []netlist.Fault) (good []int64, faulty [][]int64, err error) {
	if len(faults) > 63 {
		return nil, nil, fmt.Errorf("fault: Records limited to 63 faults per pass, got %d", len(faults))
	}
	sim := digital.NewFIRSim(u.FIR)
	for i, f := range faults {
		if err := sim.InjectFault(f, 1<<uint(i+1)); err != nil {
			return nil, nil, err
		}
	}
	lanes, err := sim.RunLanesPeriodic(xs, len(faults)+1)
	if err != nil {
		return nil, nil, err
	}
	return lanes[0], lanes[1:], nil
}

// RecordsFromBaseline is Records generated by parallel-pattern
// single-fault propagation against a fault-free baseline captured
// from the same periodic stimulus (see digital.CaptureBaseline): each
// fault re-evaluates only the gates its effect reaches, 64 record
// steps per gate evaluation, on the worker's replay r. The returned faulty
// records are bit-identical to Records' (the good record is
// base.Good).
func RecordsFromBaseline(r *digital.FaultReplay, base *digital.Baseline, faults []netlist.Fault) ([][]int64, error) {
	out := make([][]int64, len(faults))
	for i, f := range faults {
		rec, err := r.Record(base, f)
		if err != nil {
			return nil, err
		}
		out[i] = rec
	}
	return out, nil
}

// SerialSimulate runs faults one at a time (one fault in all lanes per
// pass). It produces identical results to Simulate and exists as the
// baseline for the parallel-vs-serial ablation benchmark.
func SerialSimulate(u *Universe, xs []int64, det Detector) (*Report, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("fault: empty input record")
	}
	if det == nil {
		return nil, fmt.Errorf("fault: nil detector")
	}
	// The serial reference path detects through the same scratch-bound
	// function the pool workers use, so its verdicts — bit-identical by
	// the WorkerDetector contract — are also allocation-free per fault.
	det, err := workerDetector(det)
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(u.Faults))
	sim := digital.NewFIRSim(u.FIR)
	goodRec, err := sim.RunPeriodic(xs)
	if err != nil {
		return nil, err
	}
	for i, f := range u.Faults {
		fsim := digital.NewFIRSim(u.FIR)
		if err := fsim.InjectFault(f, ^uint64(0)); err != nil {
			return nil, err
		}
		faulty, err := fsim.RunPeriodic(xs)
		if err != nil {
			return nil, err
		}
		res := Result{Fault: f, Tap: u.FIR.TapOfNet(f.Net)}
		res.FirstDiff, res.MaxAbsDiff = DiffStats(goodRec, faulty)
		res.Detected, err = det.Detect(goodRec, faulty)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return &Report{Results: results, Patterns: len(xs)}, nil
}

// DetectOnly runs the exact-compare (any-difference) campaign and
// returns only the per-fault detection flags, with per-batch early
// abort: a batch stops clocking as soon as every one of its fault
// lanes has diverged from the good lane. For high-coverage stimuli
// most faults fall within the first few samples, making this several
// times faster than Simulate at the cost of the diagnostic fields.
func DetectOnly(u *Universe, xs []int64) ([]bool, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("fault: empty input record")
	}
	// Two-pass screening: most faults fall within a short prefix (any
	// difference there implies detection on the full record), so the
	// expensive full-record batches only run for the survivors.
	const prefix = 64
	if len(xs) > 4*prefix {
		// The prefix pass is warmed from the FULL record's tail, so it
		// simulates exactly the first steps of the periodic run and a
		// prefix detection strictly implies full-record detection.
		early, err := detectOnlyOnePass(u, xs[:prefix], xs)
		if err != nil {
			return nil, err
		}
		var hardIdx []int
		var hard []netlist.Fault
		for i, d := range early {
			if !d {
				hardIdx = append(hardIdx, i)
				hard = append(hard, u.Faults[i])
			}
		}
		if len(hard) > 0 {
			sub := &Universe{FIR: u.FIR, Faults: hard, Collapsed: u.Collapsed}
			rest, err := detectOnlyOnePass(sub, xs, xs)
			if err != nil {
				return nil, err
			}
			for j, idx := range hardIdx {
				early[idx] = rest[j]
			}
		}
		return early, nil
	}
	return detectOnlyOnePass(u, xs, xs)
}

// detectOnlyOnePass is DetectOnly without the prefix screen; warmSrc
// supplies the periodic warm-up tail (the full record).
func detectOnlyOnePass(u *Universe, xs, warmSrc []int64) ([]bool, error) {
	detected, _, err := mcengine.Execute(context.Background(), mcengine.Plan[[]bool, []bool]{
		N: len(u.Faults), BatchSize: lanesPerBatch,
		Kernel: func(_, lane, count int) ([]bool, error) {
			lo := lane * lanesPerBatch
			out := make([]bool, count)
			return out, detectBatch(u, xs, warmSrc, out, u.Faults[lo:lo+count])
		},
		Merge: func(detected []bool, lane int, part []bool) []bool {
			copy(detected[lane*lanesPerBatch:], part)
			return detected
		},
	}, make([]bool, len(u.Faults)))
	if err != nil {
		return nil, err
	}
	return detected, nil
}

// detectBatch clocks one 63-fault batch with early abort.
func detectBatch(u *Universe, xs, warmSrc []int64, out []bool, faults []netlist.Fault) error {
	sim := digital.NewFIRSim(u.FIR)
	for i, f := range faults {
		if err := sim.InjectFault(f, 1<<uint(i+1)); err != nil {
			return err
		}
	}
	// Periodic warm-up from the full record's tail, as in Simulate.
	warm := u.FIR.Taps() - 1
	if warm > len(warmSrc) {
		warm = len(warmSrc)
	}
	if err := sim.Warm(warmSrc[len(warmSrc)-warm:]); err != nil {
		return err
	}
	allLanes := uint64(0)
	for i := range faults {
		allLanes |= 1 << uint(i+1)
	}
	var diverged uint64
	for _, x := range xs {
		words, err := sim.Step(x)
		if err != nil {
			return err
		}
		// A lane differs from the good machine when any output bit
		// word disagrees with the broadcast of its lane-0 bit.
		for _, w := range words {
			ref := uint64(0)
			if w&1 == 1 {
				ref = ^uint64(0)
			}
			diverged |= w ^ ref
			if diverged&allLanes == allLanes {
				break
			}
		}
		if diverged&allLanes == allLanes {
			break
		}
	}
	for i := range faults {
		out[i] = diverged>>uint(i+1)&1 == 1
	}
	return nil
}

// LSBConfinement checks the paper's observation about residual faults:
// it returns the fraction of the given undetected faults whose maximum
// output perturbation is confined to the lowest `lsbs` output bits
// (|diff| < 2^lsbs). Faults that never perturb the output count as
// confined.
func LSBConfinement(results []Result, lsbs int) float64 {
	if len(results) == 0 {
		return 1
	}
	bound := int64(1) << uint(lsbs)
	n := 0
	for _, r := range results {
		if r.MaxAbsDiff < bound {
			n++
		}
	}
	return float64(n) / float64(len(results))
}
