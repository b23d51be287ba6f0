package experiments

import (
	"fmt"
	"math"

	"mstx/internal/atpg"
	"mstx/internal/digital"
	"mstx/internal/dsp"
	"mstx/internal/fault"
)

// TopOffResult quantifies the paper's DFT-reduction claim: after the
// functional (translated) test, the residue of undetected stuck-at
// faults is classified by deterministic test generation into
// redundant faults (needing no test at all), deterministically
// testable faults (a handful of scan/burst patterns), and aborted
// searches. "Effective coverage" excludes the provably redundant
// faults from the denominator.
type TopOffResult struct {
	// Functional is the translated-test campaign result.
	FunctionalCoverage float64
	// Detected/Total count the functional campaign.
	Detected, Total int
	// Testable, Untestable, Aborted classify the residue.
	Testable, Untestable, Aborted int
	// BurstsVerified counts ATPG patterns confirmed by gate-level
	// replay of the derived sample bursts.
	BurstsVerified int
	// EffectiveCoverage is detected / (total − redundant), percent.
	EffectiveCoverage float64
}

// TopOffOptions configures E10.
type TopOffOptions struct {
	// Patterns is the functional record length. Default 512.
	Patterns int
	// Taps is the filter length. Default 13.
	Taps int
	// MaxBacktracks bounds each PODEM search. Default 5000.
	MaxBacktracks int
}

// TopOff runs the E10 flow on the gate-level channel filter.
func TopOff(opts TopOffOptions) (*TopOffResult, error) {
	if opts.Patterns == 0 {
		opts.Patterns = 512
	}
	if opts.Taps == 0 {
		opts.Taps = DefaultFilterTaps
	}
	if opts.MaxBacktracks == 0 {
		opts.MaxBacktracks = 5000
	}
	coeffs, err := digital.DesignLowPassFIR(opts.Taps, DefaultFilterCutoff, dsp.Hamming)
	if err != nil {
		return nil, err
	}
	ints, _, err := digital.QuantizeCoeffs(coeffs, 8)
	if err != nil {
		return nil, err
	}
	fir, err := digital.NewFIR(ints, 10)
	if err != nil {
		return nil, err
	}
	u := fault.NewUniverse(fir, true)
	n := opts.Patterns
	xs := make([]int64, n)
	for i := range xs {
		ph := 2 * math.Pi * float64(i) / float64(n)
		xs[i] = int64(math.Round(230*math.Sin(float64(n/16+1)*ph) + 230*math.Sin(float64(n/16+17)*ph)))
	}
	rep, err := exactCampaign(u, xs)
	if err != nil {
		return nil, err
	}
	sum, err := atpg.Classify(fir.Circuit, rep.Undetected(), opts.MaxBacktracks)
	if err != nil {
		return nil, err
	}
	res := &TopOffResult{
		FunctionalCoverage: rep.Coverage(),
		Detected:           rep.Detected(),
		Total:              len(rep.Results),
		Testable:           len(sum.Testable),
		Untestable:         len(sum.Untestable),
		Aborted:            len(sum.Aborted),
	}
	for _, r := range sum.Testable {
		burst, err := atpg.PatternToSamples(fir, r.Pattern)
		if err != nil {
			return nil, err
		}
		ok, err := atpg.VerifyPattern(fir, r.Fault, burst)
		if err != nil {
			return nil, err
		}
		if ok {
			res.BurstsVerified++
		}
	}
	denom := res.Total - res.Untestable
	if denom > 0 {
		res.EffectiveCoverage = 100 * float64(res.Detected) / float64(denom)
	}
	return res, nil
}

// Format renders the top-off summary.
func (r *TopOffResult) Format() string {
	rows := [][]string{
		{"stage", "value"},
		{"functional (translated) coverage", fmt.Sprintf("%.1f%% (%d/%d)", r.FunctionalCoverage, r.Detected, r.Total)},
		{"residue: deterministically testable", fmt.Sprintf("%d (bursts verified %d)", r.Testable, r.BurstsVerified)},
		{"residue: provably redundant", fmt.Sprintf("%d", r.Untestable)},
		{"residue: aborted searches", fmt.Sprintf("%d", r.Aborted)},
		{"effective coverage (excl. redundant)", fmt.Sprintf("%.1f%%", r.EffectiveCoverage)},
	}
	return table(rows)
}
