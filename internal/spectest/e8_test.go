package spectest_test

import (
	"fmt"
	"testing"

	"mstx/internal/core"
	"mstx/internal/digital"
	"mstx/internal/experiments"
)

// TestWorkerVerdictsMatchDetectE8 is the fast path's differential test
// on the E8 universe at 64, 256, 1024 and 4096 patterns: every fault's
// record (on the realistic capture, as the spectral campaign grades
// it) gets the same verdict from a worker detector as from Detect.
// The count of records the worker re-decided on the reference
// transform is logged.
func TestWorkerVerdictsMatchDetectE8(t *testing.T) {
	if testing.Short() {
		t.Skip("E8 universe differential skipped in -short")
	}
	spec, err := experiments.BuildDefaultSpec()
	if err != nil {
		t.Fatal(err)
	}
	synth, err := core.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, patterns := range []int{64, 256, 1024, 4096} {
		t.Run(fmt.Sprintf("patterns=%d", patterns), func(t *testing.T) {
			opts := core.DefaultDigitalTestOptions()
			opts.Patterns = patterns
			dt, err := synth.BuildDigitalTest(opts)
			if err != nil {
				t.Fatal(err)
			}
			base, err := digital.NewFIRSim(dt.FIR).CaptureBaseline(dt.RealisticCodes)
			if err != nil {
				t.Fatal(err)
			}
			replay, err := digital.NewFaultReplay(dt.FIR)
			if err != nil {
				t.Fatal(err)
			}
			detect, fallbacks, err := dt.Detector.NewCountingWorkerDetect()
			if err != nil {
				t.Fatal(err)
			}
			good := base.Good
			checked, detected := 0, 0
			check := func(name string, rec []int64) {
				want, err := dt.Detector.Detect(good, rec)
				if err != nil {
					t.Fatal(err)
				}
				got, err := detect(good, rec)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s: worker verdict %v, Detect %v", name, got, want)
				}
				checked++
				if want {
					detected++
				}
			}
			check("good record", good)
			for _, f := range dt.Universe.Faults {
				rec, _, _, err := replay.Record(base, f)
				if err != nil {
					t.Fatal(err)
				}
				if rec != nil { // a nil record is the good record, checked above
					check(f.String(), rec)
				}
			}
			t.Logf("%d faults, %d records checked (%d detected), %d re-decided on the reference transform",
				len(dt.Universe.Faults), checked, detected, fallbacks())
		})
	}
}
