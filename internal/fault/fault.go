// Package fault is the stuck-at fault model for gate-level FIR
// filters: fault-universe management, detectors (exact output compare
// here; spectral in package spectest), per-fault results and coverage
// accounting, and the full-netlist record generator campaigns fall
// back on — Records, up to 63 faults in one pass (their main path is
// digital.FaultReplay's parallel-pattern single-fault propagation over
// a captured good pass). Campaigns run on package campaign's engine;
// SerialSimulate, one fault per pass, is the reference it is tested
// against.
package fault

import (
	"fmt"

	"mstx/internal/digital"
	"mstx/internal/netlist"
)

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
	// Quarantined marks a fault whose campaign batch panicked while
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
// bit-identical to Detect's. The campaign engine's workers and
// SerialSimulate detect through it (see BindWorker), so the
// per-record spectral path allocates nothing in steady state instead
// of rebuilding window tables and FFT buffers per fault.
type WorkerDetector interface {
	Detector
	NewWorkerDetect() (func(good, faulty []int64) (bool, error), error)
}

// detectFunc adapts a bound worker-detect function back into the
// Detector interface.
type detectFunc func(good, faulty []int64) (bool, error)

// Detect implements Detector.
func (f detectFunc) Detect(good, faulty []int64) (bool, error) { return f(good, faulty) }

// BindWorker returns the detector one worker goroutine detects with: a
// scratch-bound instance when det implements WorkerDetector, det
// itself otherwise. The result is for that goroutine alone.
func BindWorker(det Detector) (Detector, error) {
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
// absolute difference. It is the shared diff accounting of the
// campaign engine's full-netlist path and the serial reference (the
// parallel-pattern path reads the same two figures off its difference
// words, see digital.FaultReplay.Record) — the campaign zero-diff
// screen keys off maxAbs == 0.
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

// Records captures the full good and per-fault output records for the
// given faults (at most 63) in a single full-netlist pass. It is the
// campaign engine's record generator when parallel-pattern
// propagation is off or its baseline view would not fit; larger
// universes are batched by the caller.
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

// SerialSimulate runs faults one at a time (one fault in all lanes per
// pass). It is the reference the campaign engine's reports must equal,
// and the baseline of the parallel-vs-serial ablation benchmark.
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
	det, err := BindWorker(det)
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
