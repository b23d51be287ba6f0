package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"mstx/internal/mcengine"
	"mstx/internal/obs"
	"mstx/internal/params"
	"mstx/internal/resilient"
)

// MethodAccuracy summarizes the IIP3 measurement error of one
// translation method over a Monte-Carlo population of devices.
type MethodAccuracy struct {
	// Method is the translation method.
	Method params.Method
	// MeanErr, RMSErr, WorstAbs are the error statistics in dB.
	MeanErr, RMSErr, WorstAbs float64
	// Devices is the population size.
	Devices int
}

// Fig4Result holds the adaptive-accuracy study.
type Fig4Result struct {
	Rows []MethodAccuracy
}

// Fig4Options configures the Monte-Carlo population.
type Fig4Options struct {
	// Devices is the number of sampled devices. Default 25.
	Devices int
	// Seed drives the device sampling.
	Seed int64
	// N is the capture length. Default 2048.
	N int
	// Workers bounds the measurement fan-out (0 = engine default).
	// The result is bit-identical for any value: each device is one
	// engine lane with its own RNG substream.
	Workers int
	// Ctx, when non-nil, bounds the study: cancellation/deadline is
	// honored at device-lane granularity and surfaces as a typed
	// resilient.ErrCanceled/ErrDeadline.
	Ctx context.Context
	// Checkpoint, when enabled, snapshots the device population every
	// Checkpoint.Every merged engine lanes (name "e5_devices") so a
	// killed study resumes bit-identically.
	Checkpoint *resilient.Checkpointer
}

// Fig4 reproduces Figure 4: the mixer IIP3 is measured on a
// population of process-varied devices with full access, with nominal
// gains, and with the adaptive path-gain-first strategy. The adaptive
// error spread must be markedly tighter than nominal (only the
// amplifier tolerance remains), with full access as the floor.
func Fig4(opts Fig4Options) (*Fig4Result, error) {
	if opts.Devices == 0 {
		opts.Devices = 25
	}
	if opts.N == 0 {
		opts.N = 2048
	}
	spec, err := BuildDefaultSpec()
	if err != nil {
		return nil, err
	}
	cfg := params.Config{N: opts.N, Settle: 256}
	st := params.DefaultIIP3Stimulus()
	methods := []params.Method{params.FullAccess, params.NominalGains, params.Adaptive}
	// Device population on the sharded engine: one lane per device
	// (BatchSize 1), so each device draw comes from its own substream
	// and the study fans out across workers without losing
	// reproducibility. Measurements run noiseless (nil rng), so each
	// lane's [methods]error vector depends only on its device. As in
	// Table 2, each worker measures its devices on one sweep.
	workers := mcengine.WorkerCount(opts.Workers)
	sweeps := make([]params.Sweep, workers)
	kernel := func(w, _, count int, rng *rand.Rand) ([][3]float64, error) {
		sw := &sweeps[w]
		out := make([][3]float64, 0, count)
		for i := 0; i < count; i++ {
			device, err := spec.Sample(rng)
			if err != nil {
				return nil, err
			}
			var e [3]float64
			for j, m := range methods {
				res, err := sw.MixerIIP3(device, m, st, cfg, nil)
				if err != nil {
					return nil, err
				}
				e[j] = res.Delta()
			}
			out = append(out, e)
		}
		return out, nil
	}
	merge := func(total [][3]float64, _ int, part [][3]float64) [][3]float64 {
		return append(total, part...)
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	_, devSp := obs.Span(ctx, "e5.devices")
	all, _, err := mcengine.Run(ctx, opts.Devices, opts.Seed+400,
		mcengine.Options{
			Workers: workers, BatchSize: 1,
			Checkpoint: opts.Checkpoint, CheckpointName: "e5_devices",
		}, nil, kernel, merge, nil)
	devSp.End()
	if err != nil {
		return nil, err
	}
	out := &Fig4Result{}
	for j, m := range methods {
		es := make([]float64, len(all))
		for i, e := range all {
			es[i] = e[j]
		}
		var sum, sum2, worst float64
		for _, e := range es {
			sum += e
			sum2 += e * e
			if a := math.Abs(e); a > worst {
				worst = a
			}
		}
		out.Rows = append(out.Rows, MethodAccuracy{
			Method:   m,
			MeanErr:  sum / float64(len(es)),
			RMSErr:   math.Sqrt(sum2 / float64(len(es))),
			WorstAbs: worst,
			Devices:  len(es),
		})
	}
	return out, nil
}

// RMSByMethod returns the RMS error of the given method, or NaN.
func (r *Fig4Result) RMSByMethod(m params.Method) float64 {
	for _, row := range r.Rows {
		if row.Method == m {
			return row.RMSErr
		}
	}
	return math.NaN()
}

// Format renders the accuracy table.
func (r *Fig4Result) Format() string {
	rows := [][]string{{"method", "mean err (dB)", "rms err (dB)", "worst |err| (dB)", "devices"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Method.String(), fdb(row.MeanErr), fdb(row.RMSErr), fdb(row.WorstAbs),
			fmt.Sprintf("%d", row.Devices),
		})
	}
	return table(rows)
}
