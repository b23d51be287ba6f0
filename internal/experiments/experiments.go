// Package experiments reproduces every table and figure of the
// paper's evaluation (plus the in-text results) as callable
// experiment functions returning structured data. cmd/experiments
// prints them; the repository-root benchmarks time them and report
// their headline metrics. The experiment IDs follow DESIGN.md:
//
//	E1  Figure 1  — output spectra, fault-free and faulty 16-tap FIR
//	E2  §3 text   — fault coverage vs. number of stimulus tones
//	E3  Figure 2  — parameter pdf with FC-loss / yield-loss regions
//	E4  Figure 3  — composition boundary checks vs. masked gain errors
//	E5  Figure 4  — IIP3 accuracy: full access / nominal / adaptive
//	E6  Table 2   — FCL/YL vs. threshold for P1dB, IIP3, fc
//	E7  Table 1   — the synthesized test plan for the comm path
//	E8  §5 text   — digital filter tested through the analog path
//	E9  Figure 6  — experimental set-up: attribute walk along the path
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"text/tabwriter"

	"mstx/internal/campaign"
	"mstx/internal/digital"
	"mstx/internal/dsp"
	"mstx/internal/fault"
	"mstx/internal/path"
)

// DefaultFilterTaps is the channel-selection filter length of the
// experimental set-up (the paper's 13-tap low-pass).
const DefaultFilterTaps = 13

// DefaultFilterCutoff is the digital filter's normalized cutoff.
const DefaultFilterCutoff = 0.18

// BuildDefaultSpec returns the standard communication-path spec used
// by all experiments.
func BuildDefaultSpec() (path.Spec, error) {
	coeffs, err := digital.DesignLowPassFIR(DefaultFilterTaps, DefaultFilterCutoff, dsp.Hamming)
	if err != nil {
		return path.Spec{}, err
	}
	return path.DefaultSpec(coeffs), nil
}

// exactCampaign grades the universe by exact output compare over the
// periodic stimulus xs, on the campaign engine.
func exactCampaign(u *fault.Universe, xs []int64) (*fault.Report, error) {
	eng, err := campaign.New(u, fault.ExactDetector{}, campaign.Options{})
	if err != nil {
		return nil, err
	}
	rep, _, err := eng.Run(context.Background(), xs)
	return rep, err
}

// table renders rows with a tabwriter; the first row is the header.
func table(rows [][]string) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	for i, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
		if i == 0 {
			sep := make([]string, len(r))
			for j, h := range r {
				sep[j] = strings.Repeat("-", len(h))
			}
			fmt.Fprintln(w, strings.Join(sep, "\t"))
		}
	}
	w.Flush()
	return b.String()
}

// fdb formats a dB value.
func fdb(v float64) string {
	if math.IsInf(v, 0) {
		return "inf"
	}
	return fmt.Sprintf("%.2f", v)
}

// fpct formats a fraction as a percentage.
func fpct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
