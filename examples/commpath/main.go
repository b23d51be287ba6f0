// Commpath reproduces the paper's evaluation flow on one manufactured
// device: sample a process-varied instance of the communication path,
// measure its parameters through the functional path, run the
// composition boundary checks, and then run the digital filter's
// spectral fault test through the analog front end.
//
//	go run ./examples/commpath [seed]
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strconv"

	"mstx/internal/campaign"
	"mstx/internal/core"
	"mstx/internal/digital"
	"mstx/internal/dsp"
	"mstx/internal/params"
	"mstx/internal/path"
)

func main() {
	log.SetFlags(0)
	seed := int64(7)
	if len(os.Args) > 1 {
		v, err := strconv.ParseInt(os.Args[1], 10, 64)
		if err != nil {
			log.Fatalf("bad seed %q: %v", os.Args[1], err)
		}
		seed = v
	}

	coeffs, err := digital.DesignLowPassFIR(13, 0.18, dsp.Hamming)
	if err != nil {
		log.Fatal(err)
	}
	spec := path.DefaultSpec(coeffs)
	synth, err := core.New(spec)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := synth.Synthesize(nil); err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	device, err := spec.Sample(rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device #%d: amp %.2f dB, mixer %.2f dB / IIP3 %.2f dBm, lpf fc %.0f Hz\n\n",
		seed, device.Amp.GainDB, device.Mixer.ConvGainDB, device.Mixer.IIP3DBm, device.LPF.CutoffHz)

	cfg := params.Config{N: 4096, Settle: 512}
	// Execute with the device's noise active: sub-LSB measurements
	// (LO isolation) rely on converter dither.
	outcomes, err := synth.Execute(device, cfg, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		log.Fatal(err)
	}
	for _, o := range outcomes {
		if o.Skipped {
			fmt.Printf("  DFT   %-14s (%s)\n", o.Test.Request.Param, o.Test.Reason)
			continue
		}
		verdict := "pass"
		if !o.Pass {
			verdict = "FAIL"
		}
		fmt.Printf("  %-5s %-14s measured %9.4g %-3s true %9.4g (err %+.3g)\n",
			verdict, o.Test.Request.Param, o.Result.Measured, o.Result.Unit,
			o.Result.True, o.Result.Delta())
	}

	checks, err := synth.CheckBoundaries(device, cfg, rng)
	if err != nil {
		log.Fatal(err)
	}
	for i, ok := range checks {
		verdict := "pass"
		if !ok {
			verdict = "FAIL"
		}
		fmt.Printf("  %-5s boundary %v check\n", verdict, synth.Plan.Boundary[i].Kind)
	}

	// Digital side: spectral fault test through the analog front end.
	opts := core.DefaultDigitalTestOptions()
	opts.Patterns = 1024
	opts.Seed = seed
	dt, err := synth.BuildDigitalTest(opts)
	if err != nil {
		log.Fatal(err)
	}
	rep, _, err := dt.RunSpectralOpts(context.Background(), campaign.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndigital filter spectral fault test: %s\n", rep)
	fmt.Printf("uncertainty floor: %.1f dB below the stimulus\n", dt.Detector.FloorDBFS())
}
