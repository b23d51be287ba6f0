package experiments

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

// Table2Row is one parameter's line of Table 2: fault-coverage loss
// and yield loss at the three threshold choices.
type Table2Row struct {
	// Parameter names the measured parameter.
	Parameter string
	// Method is the translation method that was used.
	Method params.Method
	// ErrSigma is the empirically determined 1σ measurement error.
	ErrSigma float64
	// Unit is the parameter unit.
	Unit string
	// Sweep holds the Tol / Tol−Err / Tol+Err loss rows.
	Sweep []tolerance.ThresholdRow
	// MC is the engine-backed Monte-Carlo cross-check of the nominal
	// (Tol) threshold losses: same error model, independent of the
	// closed form, with confidence-interval early stopping.
	MC tolerance.LossEstimate
}

// Table2Result reproduces Table 2 for P1dB, IIP3 and fc.
type Table2Result struct {
	Rows []Table2Row
	// Devices is the Monte-Carlo population used to estimate the
	// measurement error of each procedure.
	Devices int
}

// Table2Options configures the study.
type Table2Options struct {
	// Devices is the Monte-Carlo population. Default 15.
	Devices int
	// Seed drives device sampling.
	Seed int64
	// N is the capture length. Default 2048.
	N int
	// Workers bounds the engine fan-out for device measurement and
	// the loss cross-check (0 = engine default). Results are
	// bit-identical for any value.
	Workers int
	// MCSamples is the per-row loss cross-check budget. Default
	// 200000; early stopping usually resolves it in far fewer draws.
	MCSamples int
	// MCTargetHalfWidth is the 95% CI half-width at which the loss
	// cross-check stops early. Default 0.005 (half a percentage
	// point).
	MCTargetHalfWidth float64
	// Ctx, when non-nil, bounds the study: cancellation/deadline is
	// honored at engine-lane granularity and surfaces as a typed
	// resilient.ErrCanceled/ErrDeadline.
	Ctx context.Context
	// Checkpoint, when enabled, snapshots the device population (name
	// "e6_devices") and each loss cross-check ("e6_loss_<param>") every
	// Checkpoint.Every merged engine lanes so a killed study resumes
	// bit-identically.
	Checkpoint *resilient.Checkpointer
}

// Table2 runs the full Table 2 reproduction: for each of the three
// propagation-translated parameters the measurement procedure runs on
// a population of process-varied devices, the empirical error spread
// is extracted (bias removed — the tester calibrates out systematic
// bias), and the FCL/YL threshold sweep is computed against the
// parameter's process distribution.
//
// Every device's stimulus tones and SC clock are the same (the tester
// derives the tones from the nominal LO and snaps them to coherent
// bins), so their tables come from the process-wide msignal set, and
// each engine worker measures every device it draws on one
// params.Sweep.
func Table2(opts Table2Options) (*Table2Result, error) {
	return table2(opts, measureDevice)
}

// measureDevice returns the studies' measurement errors on device d,
// measured on sw.
func measureDevice(sw *params.Sweep, studies []e6Study, d *path.Path) (v [3]float64, err error) {
	for j, s := range studies {
		r, err := s.measure(sw, d)
		if err != nil {
			return v, fmt.Errorf("experiments: %s on device: %w", s.name, err)
		}
		v[j] = r.Delta()
	}
	return v, nil
}

// e6Study is one Table 2 parameter: its measurement procedure, run on
// a caller's sweep, and the process distribution and spec limit its
// losses are computed against.
type e6Study struct {
	name    string
	unit    string
	method  params.Method
	measure func(sw *params.Sweep, p *path.Path) (params.Result, error)
	dist    tolerance.Normal
	spec    tolerance.SpecLimit
}

// table2 is Table2 with the per-device measurement supplied: device
// returns the three studies' measurement errors on one device,
// measured on the calling worker's sweep.
func table2(opts Table2Options, device func(sw *params.Sweep, studies []e6Study, d *path.Path) ([3]float64, error)) (*Table2Result, error) {
	opts.Workers = mcengine.WorkerCount(opts.Workers)
	if opts.Devices == 0 {
		opts.Devices = 15
	}
	if opts.N == 0 {
		opts.N = 2048
	}
	if opts.MCSamples == 0 {
		opts.MCSamples = 200000
	}
	if opts.MCTargetHalfWidth == 0 {
		opts.MCTargetHalfWidth = 0.005
	}
	spec, err := BuildDefaultSpec()
	if err != nil {
		return nil, err
	}
	cfg := params.Config{N: opts.N, Settle: 256}
	st := params.DefaultIIP3Stimulus()

	studies := []e6Study{
		{
			name: "P1dB", unit: "dBm", method: params.NominalGains,
			measure: func(sw *params.Sweep, p *path.Path) (params.Result, error) {
				return sw.MixerP1dB(p, params.NominalGains, cfg, nil)
			},
			dist: tolerance.Normal{Mean: spec.Mixer.P1dBDBm.Nominal, Sigma: spec.Mixer.P1dBDBm.Sigma},
			spec: tolerance.LowerLimit(spec.Mixer.P1dBDBm.Nominal - 2),
		},
		{
			name: "IIP3", unit: "dBm", method: params.Adaptive,
			measure: func(sw *params.Sweep, p *path.Path) (params.Result, error) {
				return sw.MixerIIP3(p, params.Adaptive, st, cfg, nil)
			},
			dist: tolerance.Normal{Mean: spec.Mixer.IIP3DBm.Nominal, Sigma: spec.Mixer.IIP3DBm.Sigma},
			spec: tolerance.LowerLimit(spec.Mixer.IIP3DBm.Nominal - 2),
		},
		{
			name: "fc", unit: "Hz", method: params.Adaptive,
			measure: func(sw *params.Sweep, p *path.Path) (params.Result, error) {
				return sw.LPFCutoff(p, cfg, nil)
			},
			dist: tolerance.Normal{Mean: spec.LPF.CutoffHz.Nominal, Sigma: spec.LPF.CutoffHz.Sigma},
			spec: tolerance.BandLimit(spec.LPF.CutoffHz.Nominal*0.92, spec.LPF.CutoffHz.Nominal*1.08),
		},
	}

	res := &Table2Result{Devices: opts.Devices}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// Observability: the device-population measurement and the loss
	// cross-check are E6's two expensive phases; give each a child
	// span so a slow Table 2 run is attributable.
	e6Ctx, e6Sp := obs.Span(ctx, "e6.table2")
	defer e6Sp.End()
	_, devSp := obs.Span(e6Ctx, "e6.devices")
	// One engine lane per device: the device draw and every study's
	// measurement of it happen in the lane, so the fan-out across
	// workers never reorders a device's RNG consumption. Each worker
	// measures its lanes on its own sweep.
	sweeps := make([]params.Sweep, opts.Workers)
	kernel := func(w, _, count int, rng *rand.Rand) ([][3]float64, error) {
		out := make([][3]float64, 0, count)
		for i := 0; i < count; i++ {
			d, err := spec.Sample(rng)
			if err != nil {
				return nil, err
			}
			v, err := device(&sweeps[w], studies, d)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	merge := func(total [][3]float64, _ int, part [][3]float64) [][3]float64 {
		return append(total, part...)
	}
	all, _, err := mcengine.Run(ctx, opts.Devices, opts.Seed+600,
		mcengine.Options{
			Workers: opts.Workers, BatchSize: 1,
			Checkpoint: opts.Checkpoint, CheckpointName: "e6_devices",
		}, nil, kernel, merge, nil)
	devSp.End()
	if err != nil {
		return nil, err
	}
	_, lossSp := obs.Span(e6Ctx, "e6.losscheck")
	defer lossSp.End()
	for j, s := range studies {
		deltas := make([]float64, len(all))
		for i, v := range all {
			deltas[i] = v[j]
		}
		sigma := sigmaAboutMean(deltas)
		if sigma <= 0 {
			sigma = 1e-9
		}
		sweep := tolerance.ThresholdSweep(s.dist, sigma, tolerance.WorstCaseErr(sigma), s.spec)
		// Cross-check the nominal-threshold losses with the sharded
		// Monte Carlo: same P/error model as the closed form, stopping
		// as soon as the 95% CI is inside the target half-width.
		mc, err := tolerance.MonteCarloLosses(ctx, s.dist, tolerance.Normal{Sigma: sigma},
			s.spec, s.spec, opts.MCSamples, opts.Seed+601+int64(j),
			tolerance.MCOptions{
				Workers:         opts.Workers,
				CheckEvery:      2,
				TargetHalfWidth: opts.MCTargetHalfWidth,
				Checkpoint:      opts.Checkpoint,
				CheckpointName:  "e6_loss_" + s.name,
			})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s loss cross-check: %w", s.name, err)
		}
		res.Rows = append(res.Rows, Table2Row{
			Parameter: s.name, Method: s.method, ErrSigma: sigma, Unit: s.unit,
			Sweep: sweep, MC: mc,
		})
	}
	return res, nil
}

// sigmaAboutMean returns the standard deviation of xs about their
// mean (the tester calibrates out the systematic bias).
func sigmaAboutMean(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var mean float64
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	var ss float64
	for _, v := range xs {
		ss += (v - mean) * (v - mean)
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Format renders the Table 2 reproduction in the paper's layout.
func (r *Table2Result) Format() string {
	rows := [][]string{{
		"param", "method", "err σ",
		"Tol FCL", "Tol YL",
		"Tol-Err FCL", "Tol-Err YL",
		"Tol+Err FCL", "Tol+Err YL",
		"MC FCL", "MC YL", "MC n",
	}}
	for _, row := range r.Rows {
		cells := []string{row.Parameter, row.Method.String(),
			fmt.Sprintf("%.3g %s", row.ErrSigma, row.Unit)}
		for _, sw := range row.Sweep {
			cells = append(cells, fpct(sw.Losses.FCL), fpct(sw.Losses.YL))
		}
		cells = append(cells, fpct(row.MC.FCL), fpct(row.MC.YL),
			fmt.Sprintf("%d", row.MC.Samples))
		rows = append(rows, cells)
	}
	return table(rows)
}
