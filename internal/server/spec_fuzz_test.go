package server

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
)

// FuzzSubmitSpec drives the job-spec boundary with arbitrary request
// bodies. The contract under fuzz: decoding a body and normalizing its
// spec never panics; every spec normalize accepts is within the caps
// table; and normalizing an accepted spec again changes nothing, so
// its identity is stable. The seed corpus under
// testdata/fuzz/FuzzSubmitSpec holds every spec the tests, the
// documented examples (check.sh's smokes and the mstxd client usage)
// and the benchmark workloads send, plus the budget overflows the
// fuzzer first found.
func FuzzSubmitSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSubmit(body)
		if err != nil {
			return
		}
		sp := req.Spec
		if err := sp.normalize(); err != nil {
			return
		}
		if err := withinCaps(sp); err != nil {
			t.Fatalf("accepted spec %+v: %v", sp, err)
		}
		again := sp
		again.TAMWidths = slices.Clone(sp.TAMWidths)
		again.Cores = slices.Clone(sp.Cores)
		if err := again.normalize(); err != nil {
			t.Fatalf("normalized spec %+v rejected on renormalizing: %v", sp, err)
		}
		if !reflect.DeepEqual(again, sp) {
			t.Fatalf("renormalizing changed the spec: %+v, then %+v", sp, again)
		}
		// The campaign identity hashes the built stimulus as well as
		// these fields, so it is left to the spec comparison above.
		if sp.Kind != "campaign" && identity(t, sp) != identity(t, again) {
			t.Fatalf("renormalizing changed the identity of %+v", sp)
		}
	})
}

func identity(t *testing.T, sp Spec) uint64 {
	task, err := newTask(&sp)
	if err != nil {
		t.Fatalf("newTask(%+v): %v", sp, err)
	}
	h, err := task.prepare(context.Background())
	if err != nil {
		t.Fatalf("prepare(%+v): %v", sp, err)
	}
	return h
}

// withinCaps checks a normalized spec against the caps table and the
// ranges normalize enforces.
func withinCaps(sp Spec) error {
	in := func(field string, v, lo, hi int) error {
		if v < lo || v > hi {
			return fmt.Errorf("%s %d outside [%d, %d]", field, v, lo, hi)
		}
		return nil
	}
	var errs []error
	switch sp.Kind {
	case "campaign":
		errs = append(errs, in("patterns", sp.Patterns, 64, maxPatterns))
	case "mc":
		errs = append(errs,
			in("devices", sp.Devices, 2, maxDevices),
			in("mc_samples", sp.MCSamples, 0, maxMCSamples),
			in("capture_n", sp.CaptureN, 64, maxCaptureN))
	case "translate":
		errs = append(errs,
			in("samples", sp.Samples, 0, maxSamples),
			in("batch_size", sp.BatchSize, 0, math.MaxInt))
	case "soc":
		errs = append(errs,
			in("tam_widths length", len(sp.TAMWidths), 1, maxTAMWidths),
			in("cores length", len(sp.Cores), 0, maxCores),
			in("iterations", sp.Iterations, 1, maxIterations))
		for _, w := range sp.TAMWidths {
			errs = append(errs, in("tam_widths entry", w, 1, maxTAMWidth))
		}
	default:
		return fmt.Errorf("unknown kind %q accepted", sp.Kind)
	}
	if sp.DeadlineMS < 0 || sp.DeadlineMS > maxDeadlineMS || sp.TimeoutSec < 0 {
		errs = append(errs, fmt.Errorf("budget outside [0, %d] ms: deadline_ms %d, timeout_sec %g",
			maxDeadlineMS, sp.DeadlineMS, sp.TimeoutSec))
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
