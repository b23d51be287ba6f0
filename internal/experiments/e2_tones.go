package experiments

import (
	"fmt"
	"math"

	"mstx/internal/digital"
	"mstx/internal/dsp"
	"mstx/internal/fault"
)

// ToneCoverageRow is one row of the E2 study: stuck-at coverage of the
// 16-tap filter for a stimulus with a given number of tones.
type ToneCoverageRow struct {
	// Tones is the number of stimulus tones.
	Tones int
	// Coverage is the stuck-at fault coverage, percent.
	Coverage float64
	// Detected and Total count faults.
	Detected, Total int
}

// TonesResult holds the coverage-vs-tones sweep. The paper reports
// 89.6% for one tone and 95.5% for two, with more tones only slightly
// better — the shape this experiment reproduces.
type TonesResult struct {
	Rows []ToneCoverageRow
	// Patterns is the record length used.
	Patterns int
}

// TonesOptions configures the sweep.
type TonesOptions struct {
	// Patterns is the record length. Default 1024.
	Patterns int
	// MaxTones is the largest stimulus tone count. Default 3.
	MaxTones int
	// Taps is the filter length. Default 16.
	Taps int
}

// CoverageVsTones runs the E2 sweep: ideal multi-tone records with a
// fixed composite amplitude, exact output comparison (the inputs are
// known exactly in this in-text experiment), full collapsed stuck-at
// universe.
func CoverageVsTones(opts TonesOptions) (*TonesResult, error) {
	if opts.Patterns == 0 {
		opts.Patterns = 1024
	}
	if opts.MaxTones == 0 {
		opts.MaxTones = 3
	}
	if opts.Taps == 0 {
		opts.Taps = 16
	}
	coeffs, err := digital.DesignLowPassFIR(opts.Taps, 0.15, dsp.Hamming)
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
	res := &TonesResult{Patterns: n}
	// Pass-band bins, mutually prime-ish against n for code coverage.
	bins := []int{n/16 + 1, n/16 + 17, n/16 - 13, n/16 + 29}
	const composite = 460.0 // near full scale of the 10-bit input
	for tones := 1; tones <= opts.MaxTones; tones++ {
		xs := make([]int64, n)
		per := composite / float64(tones)
		for i := range xs {
			var v float64
			for t := 0; t < tones; t++ {
				v += per * math.Sin(2*math.Pi*float64(bins[t])*float64(i)/float64(n)+float64(t))
			}
			xs[i] = int64(math.Round(v))
		}
		rep, err := exactCampaign(u, xs)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, ToneCoverageRow{
			Tones:    tones,
			Coverage: rep.Coverage(),
			Detected: rep.Detected(),
			Total:    len(rep.Results),
		})
	}
	return res, nil
}

// Format renders the sweep table.
func (r *TonesResult) Format() string {
	rows := [][]string{{"tones", "coverage", "detected", "faults"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Tones),
			fmt.Sprintf("%.1f%%", row.Coverage),
			fmt.Sprintf("%d", row.Detected),
			fmt.Sprintf("%d", row.Total),
		})
	}
	return table(rows)
}
