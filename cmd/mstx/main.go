// Command mstx synthesizes the system-level test program for the
// default mixed-signal communication path and executes it against a
// device instance: the nominal device (-seed 0), a process-varied
// sample (-seed N), or a device with an injected parametric fault.
//
// Usage:
//
//	mstx [-seed N] [-fault name=delta] [-n 4096] [-plan]
//	     [-mc-refine] [-mc-losses] [-mc-samples N] [-mc-ci W] [-workers K]
//	     [-checkpoint dir] [-checkpoint-every N] [-resume] [-timeout D]
//	     [-metrics] [-trace] [-obs-out file] [-debug-addr host:port]
//
// Faults: amp-gain, mixer-gain, mixer-iip3, lpf-fc, lpf-gain,
// lo-freq (value is added to the parameter; lpf-fc is relative).
//
// The -mc-* flags drive the sharded Monte-Carlo engine: -mc-refine
// replaces the analytic propagation error budgets with MC-estimated
// sigmas before executing, -mc-losses prints an engine-backed FCL/YL
// estimate (with 95% CI half-widths) for every translated test.
//
// The observability flags turn the internal/obs layer on: -metrics
// prints a Prometheus-format metrics report and -trace an indented
// span report after the run, both to stderr (or to a file with
// -obs-out, so the reports never mix into piped stdout). -debug-addr
// additionally serves /metrics, /trace and /debug/pprof over HTTP for
// the life of the process. With none of these flags the engines run
// with observability disabled — the nil-registry fast path.
//
// The resilience flags bound and snapshot the Monte-Carlo work:
// -timeout cancels the run's engines at lane granularity after the
// given duration, -checkpoint makes them snapshot their merged state
// every -checkpoint-every merged lanes into the given directory, and
// -resume restores those snapshots so a killed run continues where it
// stopped with a bit-identical final result.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"mstx/internal/core"
	"mstx/internal/experiments"
	"mstx/internal/obs"
	"mstx/internal/params"
	"mstx/internal/path"
	"mstx/internal/resilient"
	"mstx/internal/tolerance"
	"mstx/internal/translate"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, runs the program
// against the given writers and returns the process exit code (0 ok,
// 1 runtime failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mstx", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Int64("seed", 0, "0 = nominal device, otherwise a process-varied sample")
		faultArg  = fs.String("fault", "", "inject a parametric fault, e.g. mixer-iip3=-4")
		n         = fs.Int("n", 4096, "capture length (power of two)")
		planOnly  = fs.Bool("plan", false, "print the synthesized plan and exit without executing")
		mcRefine  = fs.Bool("mc-refine", false, "Monte-Carlo-refine the propagation error budgets before use")
		mcLosses  = fs.Bool("mc-losses", false, "print engine-backed FCL/YL estimates per translated test")
		mcSamples = fs.Int("mc-samples", 200000, "Monte-Carlo sample budget per estimate")
		mcCI      = fs.Float64("mc-ci", 0.005, "95% CI half-width early-stop target for -mc-losses (0 = spend the full budget)")
		workers   = fs.Int("workers", 0, "Monte-Carlo worker fan-out (0 = GOMAXPROCS; results identical for any value)")
		ckptDir   = fs.String("checkpoint", "", "snapshot the Monte-Carlo engines' merged state into this directory")
		ckptEvery = fs.Int("checkpoint-every", 1, "save a snapshot every N merged engine lanes")
		resume    = fs.Bool("resume", false, "resume from snapshots in the -checkpoint directory")
		timeout   = fs.Duration("timeout", 0, "cancel the run after this duration (0 = no deadline)")
		metrics   = fs.Bool("metrics", false, "print a Prometheus-format metrics report after the run")
		trace     = fs.Bool("trace", false, "print a span trace report after the run")
		obsOut    = fs.String("obs-out", "", "write the -metrics/-trace reports to this file instead of stderr")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /trace and /debug/pprof on this address")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "mstx: unexpected arguments: %q\n", fs.Args())
		fs.Usage()
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "mstx:", err)
		return 1
	}
	if *resume && *ckptDir == "" {
		fmt.Fprintln(stderr, "mstx: -resume requires -checkpoint")
		fs.Usage()
		return 2
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var ckpt *resilient.Checkpointer
	if *ckptDir != "" {
		ckpt = &resilient.Checkpointer{Dir: *ckptDir, Every: *ckptEvery, Resume: *resume}
	}

	// Observability: install a registry only when a flag asks for it,
	// so the default run keeps the engines on their nil-registry fast
	// path. The report is emitted on every exit path (including
	// failures — a failing run is exactly when the trace matters).
	var reg *obs.Registry
	if *metrics || *trace || *obsOut != "" || *debugAddr != "" {
		reg = obs.New()
		obs.SetDefault(reg)
		defer obs.SetDefault(nil)
		if *debugAddr != "" {
			addr, _, err := obs.ServeDebug(*debugAddr, reg)
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(stderr, "mstx: debug server on http://%s (metrics, trace, debug/pprof)\n", addr)
		}
		defer func() {
			if err := writeObsReport(reg, stderr, *metrics || *obsOut != "", *trace, *obsOut); err != nil {
				fmt.Fprintln(stderr, "mstx:", err)
			}
		}()
	}
	runCtx, runSp := obs.Span(nil, "mstx.run")
	defer runSp.End()

	_, synthSp := obs.Span(runCtx, "mstx.synthesize")
	spec, err := experiments.BuildDefaultSpec()
	if err != nil {
		return fail(err)
	}
	synth, err := core.New(spec)
	if err != nil {
		return fail(err)
	}
	plan, err := synth.Synthesize(nil)
	synthSp.End()
	if err != nil {
		return fail(err)
	}

	var device *path.Path
	if *seed == 0 {
		device, err = spec.Build()
	} else {
		device, err = spec.Sample(rand.New(rand.NewSource(*seed)))
	}
	if err != nil {
		return fail(err)
	}
	if *faultArg != "" {
		if err := injectFault(device, *faultArg); err != nil {
			fmt.Fprintln(stderr, "mstx:", err)
			fs.Usage()
			return 2
		}
	}

	mcCfg := translate.MCConfig{Samples: *mcSamples, Seed: *seed, Workers: *workers, Checkpoint: ckpt}
	if *mcRefine {
		_, refineSp := obs.Span(runCtx, "mstx.mc_refine")
		err := translate.RefineErrSigmaMC(ctx, device, plan, mcCfg)
		refineSp.End()
		if err != nil {
			return fail(err)
		}
	}

	fmt.Fprintf(stdout, "synthesized %d tests (%d need DFT), %d boundary checks\n\n",
		len(plan.Tests), len(plan.DFTRequired), len(plan.Boundary))
	if *planOnly {
		printPlan(stdout, plan)
		return 0
	}
	if *faultArg != "" {
		fmt.Fprintf(stdout, "injected parametric fault: %s\n\n", *faultArg)
	}
	if *mcLosses {
		_, lossSp := obs.Span(runCtx, "mstx.mc_losses")
		err := printMCLosses(ctx, stdout, plan, *mcSamples, *mcCI, *workers, *seed, ckpt)
		lossSp.End()
		if err != nil {
			return fail(err)
		}
	}

	cfg := params.Config{N: *n, Settle: 512}
	// Measurements run with the device's own noise active (a seeded
	// RNG): sub-LSB spurs such as the LO leak rely on converter dither
	// to be measured linearly.
	_, execSp := obs.Span(runCtx, "mstx.execute")
	outcomes, err := synth.Execute(device, cfg, rand.New(rand.NewSource(*seed+1)))
	execSp.End()
	if err != nil {
		return fail(err)
	}
	fails := 0
	for _, o := range outcomes {
		if o.Skipped {
			fmt.Fprintf(stdout, "SKIP  %-14s %-10s (%s)\n", o.Test.Request.Param, "", o.Test.Reason)
			continue
		}
		verdict := "pass"
		if !o.Pass {
			verdict = "FAIL"
			fails++
		}
		fmt.Fprintf(stdout, "%-5s %-14s [%s] measured %.4g %s (true %.4g, err %+.3g)\n",
			verdict, o.Test.Request.Param, o.Test.Method,
			o.Result.Measured, o.Result.Unit, o.Result.True, o.Result.Delta())
	}
	rng := rand.New(rand.NewSource(*seed + 99))
	_, boundSp := obs.Span(runCtx, "mstx.boundaries")
	checks, err := synth.CheckBoundaries(device, cfg, rng)
	boundSp.End()
	if err != nil {
		return fail(err)
	}
	for i, ok := range checks {
		verdict := "pass"
		if !ok {
			verdict = "FAIL"
			fails++
		}
		fmt.Fprintf(stdout, "%-5s boundary check %d (%v at %.3g V)\n",
			verdict, i, plan.Boundary[i].Kind, plan.Boundary[i].PIAmplitude)
	}
	if fails > 0 {
		fmt.Fprintf(stdout, "\ndevice REJECTED: %d failing tests\n", fails)
	} else {
		fmt.Fprintf(stdout, "\ndevice ACCEPTED\n")
	}
	return 0
}

// printPlan renders the synthesized plan without executing it.
func printPlan(w io.Writer, plan *translate.Plan) {
	for _, t := range plan.Tests {
		fmt.Fprintf(w, "%2d  %-14s %-12s %-14s σ=%-8.3g captures=%d  %s\n",
			t.Order, t.Request.Param, t.Kind, t.Method, t.ErrSigma, t.Captures, t.Reason)
	}
}

// printMCLosses runs the engine-backed loss estimate for every
// translated test with an error budget.
func printMCLosses(ctx context.Context, w io.Writer, plan *translate.Plan, samples int, ci float64, workers int, seed int64, ckpt *resilient.Checkpointer) error {
	fmt.Fprintf(w, "Monte-Carlo loss estimates (budget %d, CI target %g):\n", samples, ci)
	for i, t := range plan.Tests {
		if t.Kind == translate.Direct || t.ErrSigma <= 0 {
			continue
		}
		est, err := tolerance.MonteCarloLosses(ctx,
			t.Request.Dist, tolerance.Normal{Sigma: t.ErrSigma},
			t.Request.Limit, t.Request.Limit,
			samples, seed+1000+int64(i),
			tolerance.MCOptions{
				Workers: workers, CheckEvery: 2, TargetHalfWidth: ci,
				Checkpoint:     ckpt,
				CheckpointName: fmt.Sprintf("losses_%d_%s", i, t.Request.Param),
			})
		if err != nil {
			return fmt.Errorf("%s: %w", t.Request.Param, err)
		}
		fmt.Fprintf(w, "  %-14s FCL %6.2f%% ±%.2f  YL %6.2f%% ±%.2f  (n=%d",
			t.Request.Param, 100*est.FCL, 100*est.FCLHalfWidth,
			100*est.YL, 100*est.YLHalfWidth, est.Samples)
		if est.Converged {
			fmt.Fprintf(w, ", converged")
		}
		fmt.Fprintf(w, ")\n")
	}
	fmt.Fprintln(w)
	return nil
}

// writeObsReport emits the -metrics and/or -trace run report to
// stderr, or to the -obs-out file when given (metrics implied then).
func writeObsReport(reg *obs.Registry, stderr io.Writer, metrics, trace bool, outPath string) error {
	w := stderr
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if metrics {
		if err := reg.WriteText(w); err != nil {
			return err
		}
	}
	if trace {
		if err := reg.WriteTrace(w); err != nil {
			return err
		}
	}
	return nil
}

// injectFault applies "name=delta" to the device's actual parameters.
func injectFault(d *path.Path, arg string) error {
	parts := strings.SplitN(arg, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("bad -fault %q, want name=delta", arg)
	}
	delta, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return fmt.Errorf("bad delta in -fault: %v", err)
	}
	switch parts[0] {
	case "amp-gain":
		d.Amp.GainDB += delta
	case "mixer-gain":
		d.Mixer.ConvGainDB += delta
	case "mixer-iip3":
		d.Mixer.IIP3DBm += delta
	case "lpf-fc":
		d.LPF.CutoffHz *= 1 + delta
	case "lpf-gain":
		d.LPF.GainDB += delta
	case "lo-freq":
		d.LO.FreqHz += delta
	default:
		return fmt.Errorf("unknown fault target %q", parts[0])
	}
	return nil
}
