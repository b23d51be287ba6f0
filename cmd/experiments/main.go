// Command experiments regenerates every table and figure of the
// paper's evaluation from the mstx reproduction. With no flags it
// runs the full set (E1–E10); individual experiments can be selected.
//
// Usage:
//
//	experiments [-fig1] [-tones] [-fig2] [-fig3] [-fig4] [-table1]
//	            [-table2] [-path] [-fig6] [-e9] [-topoff] [-quick]
//	            [-workers K] [-list]
//	            [-metrics] [-trace] [-obs-out file] [-debug-addr host:port]
//	            [-checkpoint dir] [-checkpoint-every n] [-resume]
//	            [-timeout d]
//
// Result tables go to stdout; progress headers and all diagnostics go
// to stderr, so `experiments -table2 > table2.txt` captures exactly
// the table (the golden files under internal/experiments/testdata are
// compared against stdout alone). -metrics and -trace print the
// internal/obs report after the run, to stderr or to -obs-out;
// -debug-addr serves /metrics, /trace and /debug/pprof over HTTP.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"mstx/internal/experiments"
	"mstx/internal/obs"
	"mstx/internal/resilient"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parse args, run the selected
// experiments, return the exit code (0 ok, 1 failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig1      = fs.Bool("fig1", false, "E1: output spectra of the faulty 16-tap filter (Figure 1)")
		tones     = fs.Bool("tones", false, "E2: fault coverage vs. number of stimulus tones (§3)")
		fig2      = fs.Bool("fig2", false, "E3: parameter distribution and loss regions (Figure 2)")
		fig3      = fs.Bool("fig3", false, "E4: composition boundary checks (Figure 3)")
		fig4      = fs.Bool("fig4", false, "E5: IIP3 accuracy by translation method (Figure 4)")
		table1    = fs.Bool("table1", false, "E7: synthesized test plan (Table 1)")
		table2    = fs.Bool("table2", false, "E6: FCL/YL threshold sweep (Table 2)")
		pathE     = fs.Bool("path", false, "E8: digital filter tested through the analog path (§5)")
		fig6      = fs.Bool("fig6", false, "E9: experimental set-up attribute walk (Figure 6)")
		e9soc     = fs.Bool("e9", false, "E9: multi-core SOC test planning — TAM schedule sweep (Sehgal et al.)")
		topoff    = fs.Bool("topoff", false, "E10: ATPG top-off of the functional residue (DFT reduction)")
		quick     = fs.Bool("quick", false, "reduced sizes for a fast smoke run")
		workers   = fs.Int("workers", 0, "Monte-Carlo worker fan-out for E5/E6 (0 = GOMAXPROCS; results identical for any value)")
		list      = fs.Bool("list", false, "print the selected experiment IDs without running them")
		metrics   = fs.Bool("metrics", false, "print a Prometheus-format metrics report after the run")
		trace     = fs.Bool("trace", false, "print a span trace report after the run")
		obsOut    = fs.String("obs-out", "", "write the -metrics/-trace reports to this file instead of stderr")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /trace and /debug/pprof on this address")
		ckptDir   = fs.String("checkpoint", "", "checkpoint directory: snapshot E5/E6/E8 engine progress for -resume")
		ckptEvery = fs.Int("checkpoint-every", 1, "snapshot every n merged engine lanes (MC lanes, fault batches)")
		resume    = fs.Bool("resume", false, "resume from the -checkpoint directory instead of restarting")
		timeout   = fs.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "experiments: unexpected arguments: %q\n", fs.Args())
		fs.Usage()
		return 2
	}
	if *resume && *ckptDir == "" {
		fmt.Fprintln(stderr, "experiments: -resume requires -checkpoint")
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

	// Observability: a registry only when asked for, so the default run
	// keeps the engines on their nil-registry fast path.
	var reg *obs.Registry
	if *metrics || *trace || *obsOut != "" || *debugAddr != "" {
		reg = obs.New()
		obs.SetDefault(reg)
		defer obs.SetDefault(nil)
		if *debugAddr != "" {
			addr, _, err := obs.ServeDebug(*debugAddr, reg)
			if err != nil {
				fmt.Fprintln(stderr, "experiments:", err)
				return 1
			}
			fmt.Fprintf(stderr, "experiments: debug server on http://%s (metrics, trace, debug/pprof)\n", addr)
		}
		defer func() {
			if err := reg.WriteReport(stderr, *metrics || *obsOut != "", *trace, *obsOut); err != nil {
				fmt.Fprintln(stderr, "experiments:", err)
			}
		}()
	}
	runCtx, runSp := obs.Span(nil, "experiments.run")
	defer runSp.End()

	all := !(*fig1 || *tones || *fig2 || *fig3 || *fig4 || *table1 || *table2 || *pathE || *fig6 || *e9soc || *topoff)
	failed := false
	// Result tables go to stdout; the progress header goes to stderr so
	// redirected stdout is byte-comparable against the golden tables.
	run := func(enabled bool, id, title string, f func() (interface{ Format() string }, error)) {
		if (!enabled && !all) || failed {
			return
		}
		if *list {
			fmt.Fprintf(stdout, "%s — %s\n", id, title)
			return
		}
		fmt.Fprintf(stderr, "==== %s — %s ====\n", id, title)
		_, sp := obs.Span(runCtx, id)
		res, err := f()
		sp.End()
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %s failed: %v\n", id, err)
			failed = true
			return
		}
		fmt.Fprintln(stdout, res.Format())
	}

	patterns := 0 // experiment defaults
	devices := 0
	tonesP := 0
	base, long := 0, 0
	var socWidths []int
	socIters := 0
	if *quick {
		patterns = 512
		devices = 6
		tonesP = 256
		base, long = 256, 512
		socWidths = []int{4, 8, 16}
		socIters = 16
	}

	run(*fig1, "E1/Fig1", "output spectra, fault-free and faulty 16-tap FIR",
		func() (interface{ Format() string }, error) {
			return experiments.Fig1(experiments.Fig1Options{Patterns: patterns})
		})
	run(*tones, "E2/§3", "fault coverage vs. stimulus tones",
		func() (interface{ Format() string }, error) {
			return experiments.CoverageVsTones(experiments.TonesOptions{Patterns: tonesP})
		})
	run(*fig2, "E3/Fig2", "parameter pdf, FC-loss and yield-loss",
		func() (interface{ Format() string }, error) {
			return experiments.Fig2(experiments.DefaultFig2Options())
		})
	run(*fig3, "E4/Fig3", "composition boundary checks",
		func() (interface{ Format() string }, error) { return experiments.Fig3() })
	run(*fig4, "E5/Fig4", "IIP3 accuracy: full access vs nominal vs adaptive",
		func() (interface{ Format() string }, error) {
			return experiments.Fig4(experiments.Fig4Options{
				Devices: devices, Workers: *workers, Ctx: ctx, Checkpoint: ckpt,
			})
		})
	run(*table2, "E6/Table2", "FCL and YL vs threshold (P1dB, IIP3, fc)",
		func() (interface{ Format() string }, error) {
			return experiments.Table2(experiments.Table2Options{
				Devices: devices, Workers: *workers, Ctx: ctx, Checkpoint: ckpt,
			})
		})
	run(*table1, "E7/Table1", "synthesized system-level test plan",
		func() (interface{ Format() string }, error) { return experiments.Table1() })
	run(*pathE, "E8/§5", "digital filter through the analog path",
		func() (interface{ Format() string }, error) {
			return experiments.PathFaultSim(experiments.PathFaultOptions{
				BasePatterns: base, LongPatterns: long, Ctx: ctx, Checkpoint: ckpt,
			})
		})
	run(*fig6, "E9/Fig6", "experimental set-up attribute walk",
		func() (interface{ Format() string }, error) { return experiments.Fig6() })
	run(*e9soc, "E9/SOC", "multi-core SOC test planning: TAM schedule sweep",
		func() (interface{ Format() string }, error) {
			return experiments.SOCPlan(experiments.SOCOptions{
				Widths: socWidths, Iterations: socIters,
				Workers: *workers, Ctx: ctx, Checkpoint: ckpt,
			})
		})
	run(*topoff, "E10/top-off", "ATPG classification of the functional residue",
		func() (interface{ Format() string }, error) {
			return experiments.TopOff(experiments.TopOffOptions{Patterns: tonesP})
		})
	if failed {
		return 1
	}
	return 0
}
