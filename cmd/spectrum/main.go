// Command spectrum captures the default communication path's response
// to a tone or two-tone stimulus and prints the tester-style spectral
// analysis of the digital filter output (tone powers, SNR, SFDR, THD,
// SINAD, ENOB, noise floor).
//
// Usage:
//
//	spectrum [-if 0.9e6] [-if2 0] [-amp 0.004] [-n 4096] [-seed 1]
//	         [-node filter|adc]
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"mstx/internal/dsp"
	"mstx/internal/experiments"
	"mstx/internal/msignal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges (args, stdout, stderr, exit
// code) injected, so the CLI surface is testable in-process. It
// returns 0 on success, 1 on a runtime failure and 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spectrum", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fIF  = fs.Float64("if", 0.9e6, "IF tone frequency (Hz); the RF stimulus is LO + IF")
		fIF2 = fs.Float64("if2", 0, "second IF tone (0 = single tone)")
		amp  = fs.Float64("amp", 0.004, "per-tone amplitude at the primary input (V)")
		n    = fs.Int("n", 4096, "capture length (power of two)")
		seed = fs.Int64("seed", 1, "noise seed (0 = deterministic, noise-free)")
		node = fs.String("node", "filter", "observation node: filter | adc")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The tones are snapped to the n-point bin grid, which matches the
	// analysis FFT only when n is itself a power of two.
	if *n <= 0 || !dsp.IsPowerOfTwo(*n) {
		fmt.Fprintf(stderr, "spectrum: -n %d must be a positive power of two\n", *n)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "spectrum:", err)
		return 1
	}

	spec, err := experiments.BuildDefaultSpec()
	if err != nil {
		return fail(err)
	}
	p, err := spec.Build()
	if err != nil {
		return fail(err)
	}
	snap := func(f float64) float64 {
		bin := int(f * float64(*n) / spec.ADCRate)
		if bin < 1 {
			bin = 1
		}
		return float64(bin) * spec.ADCRate / float64(*n)
	}
	f1 := snap(*fIF)
	tones := []float64{f1}
	stim := msignal.NewTone(spec.LO.FreqHz.Nominal+f1, *amp)
	if *fIF2 > 0 {
		f2 := snap(*fIF2)
		tones = append(tones, f2)
		stim = msignal.NewTwoTone(spec.LO.FreqHz.Nominal+f1, spec.LO.FreqHz.Nominal+f2, *amp)
	}
	var rng *rand.Rand
	if *seed != 0 {
		rng = rand.New(rand.NewSource(*seed))
	}
	const settle = 512
	cap, err := p.Run(stim, *n+settle, rng)
	if err != nil {
		return fail(err)
	}
	var rec []float64
	switch *node {
	case "filter":
		rec = cap.FilterOut[settle:]
	case "adc":
		rec = make([]float64, *n)
		for i := range rec {
			rec[i] = float64(cap.Codes[settle+i])
		}
	default:
		return fail(fmt.Errorf("unknown node %q", *node))
	}
	an, err := dsp.Analyze(rec, spec.ADCRate, tones, dsp.Rectangular, dsp.AnalyzeOptions{})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "node: %s, %d samples at %.3g Hz\n", *node, *n, spec.ADCRate)
	for i, m := range an.Fundamentals {
		fmt.Fprintf(stdout, "tone %d: %.6g Hz, amplitude %.4g, power %.4g\n",
			i+1, m.Frequency, m.Amplitude, m.Power)
	}
	fmt.Fprintf(stdout, "SNR    %7.2f dB\n", an.SNR)
	fmt.Fprintf(stdout, "SINAD  %7.2f dB\n", an.SINAD)
	fmt.Fprintf(stdout, "THD    %7.2f dB\n", an.THD)
	fmt.Fprintf(stdout, "SFDR   %7.2f dB (worst spur at %.4g Hz)\n", an.SFDR, an.WorstSpur.Frequency)
	fmt.Fprintf(stdout, "ENOB   %7.2f bits\n", an.ENOB)
	fmt.Fprintf(stdout, "floor  %7.2f dBc/bin\n", an.NoiseFloorDB)
	return 0
}
