package fault

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"mstx/internal/resilient"
)

// settleGoroutines waits for the goroutine count to come back down to
// (at most) the baseline, tolerating runtime background goroutines.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d live, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// firstRecordErrDetector errors on the very first record pair it sees —
// the regression shape for the early-error drain path.
type firstRecordErrDetector struct{}

func (firstRecordErrDetector) Detect(good, faulty []int64) (bool, error) {
	return false, errors.New("first record rejected")
}

// TestSimulateEarlyErrorNoGoroutineLeak is the satellite regression:
// a detector that errors on the first record must not leave pool
// goroutines behind, and repeated failing campaigns must not
// accumulate any.
func TestSimulateEarlyErrorNoGoroutineLeak(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, false) // uncollapsed: plenty of batches
	xs := sineRecord(128, 28, 5)
	baseline := runtime.NumGoroutine() + 2 // tolerate runtime jitter
	for trial := 0; trial < 20; trial++ {
		_, err := Simulate(context.Background(), u, xs, firstRecordErrDetector{})
		if err == nil {
			t.Fatal("erroring detector did not surface")
		}
	}
	settleGoroutines(t, baseline)
}

func TestSimulateCancelReturnsTypedPartial(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, false)
	xs := sineRecord(128, 28, 5)

	// Already-expired deadline: nothing may run, but the report still
	// carries every fault's identity.
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	rep, err := Simulate(ctx, u, xs, ExactDetector{})
	if !errors.Is(err, resilient.ErrDeadline) {
		t.Fatalf("expired deadline returned %v, want ErrDeadline", err)
	}
	if !resilient.Interrupted(err) {
		t.Fatalf("Interrupted(%v) = false", err)
	}
	if rep == nil || len(rep.Results) != u.Size() {
		t.Fatal("partial report missing or wrong length")
	}
	for _, r := range rep.Results {
		if r.Detected || r.Quarantined {
			t.Fatalf("no batch ran, but fault %v carries a verdict", r.Fault)
		}
		if r.FirstDiff != -1 {
			t.Fatalf("unprocessed fault %v has FirstDiff %d, want -1", r.Fault, r.FirstDiff)
		}
	}

	// Mid-run cancel via a detector that pulls the trigger: later
	// batches must be skipped, and the error must be ErrCanceled.
	cctx, ccancel := context.WithCancel(context.Background())
	defer ccancel()
	trip := cancelingDetector{cancel: ccancel}
	rep, err = Simulate(cctx, u, xs, trip)
	if !errors.Is(err, resilient.ErrCanceled) {
		t.Fatalf("mid-run cancel returned %v, want ErrCanceled", err)
	}
	if errors.Is(err, resilient.ErrDeadline) {
		t.Fatal("cancel misclassified as deadline")
	}
	if rep == nil || len(rep.Results) != u.Size() {
		t.Fatal("partial report missing")
	}
}

// cancelingDetector cancels its context on the first record, then
// keeps detecting normally (exact compare).
type cancelingDetector struct{ cancel context.CancelFunc }

func (d cancelingDetector) Detect(good, faulty []int64) (bool, error) {
	d.cancel()
	return ExactDetector{}.Detect(good, faulty)
}

func TestSimulateQuarantineIsolatesPanickingBatch(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, false)
	xs := sineRecord(64, 28, 5)

	fp := resilient.NewFailpoints()
	fp.Set("fault.batch", resilient.Action{PanicValue: "batch corrupted", Times: 1})
	resilient.Install(fp)
	defer resilient.Install(nil)

	rep, err := SimulateOpts(context.Background(), u, xs, ExactDetector{},
		SimOptions{Quarantine: true})
	if err != nil {
		t.Fatalf("quarantined campaign failed: %v", err)
	}
	q := rep.Quarantined()
	if q == 0 || q > 63 {
		t.Fatalf("quarantined %d faults, want one batch's worth (1..63)", q)
	}
	// Quarantined lanes keep their identity and no verdict; all other
	// lanes must match an uninjected reference run exactly.
	resilient.Install(nil)
	ref, err := Simulate(context.Background(), u, xs, ExactDetector{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rep.Results {
		if r.Quarantined {
			if r.Detected || r.FirstDiff != -1 {
				t.Fatalf("quarantined fault %v carries a verdict", r.Fault)
			}
			continue
		}
		if r != ref.Results[i] {
			t.Fatalf("lane %d diverged from reference: %+v vs %+v", i, r, ref.Results[i])
		}
	}

	// Without Quarantine the same panic surfaces as a *PanicError and
	// the process survives.
	fp2 := resilient.NewFailpoints()
	fp2.Set("fault.batch", resilient.Action{PanicValue: "batch corrupted", Times: 1})
	resilient.Install(fp2)
	_, err = Simulate(context.Background(), u, xs, ExactDetector{})
	var pe *resilient.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic without quarantine returned %v, want *PanicError", err)
	}
	if pe.Value != "batch corrupted" {
		t.Fatalf("PanicError.Value = %v", pe.Value)
	}
}

func TestSimulateCheckpointResumeBitIdentical(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, false)
	xs := sineRecord(64, 28, 5)

	ref, err := Simulate(context.Background(), u, xs, ExactDetector{})
	if err != nil {
		t.Fatal(err)
	}
	nBatches := (u.Size() + 62) / 63
	if nBatches < 3 {
		t.Fatalf("universe too small for a mid-run kill: %d batches", nBatches)
	}

	dir := t.TempDir()
	ck := &resilient.Checkpointer{Dir: dir, Every: 1}

	// First attempt dies after two batches (failpoint error on the
	// third firing); the checkpoint must survive.
	fp := resilient.NewFailpoints()
	boom := errors.New("injected crash")
	fp.Set("fault.batch", resilient.Action{Err: boom, After: 2})
	resilient.Install(fp)
	_, err = SimulateOpts(context.Background(), u, xs, ExactDetector{},
		SimOptions{Workers: 1, Checkpoint: ck, CheckpointName: "t"})
	resilient.Install(nil)
	if !errors.Is(err, boom) {
		t.Fatalf("injected crash returned %v", err)
	}

	// Resume must re-run only the missing batches and land exactly on
	// the reference report.
	ck2 := &resilient.Checkpointer{Dir: dir, Every: 1, Resume: true}
	var reran int
	cd := countingDetector{n: &reran}
	rep, err := SimulateOpts(context.Background(), u, xs, cd,
		SimOptions{Workers: 1, Checkpoint: ck2, CheckpointName: "t"})
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if len(rep.Results) != len(ref.Results) {
		t.Fatal("result count mismatch")
	}
	for i := range rep.Results {
		if rep.Results[i] != ref.Results[i] {
			t.Fatalf("lane %d: resumed %+v != reference %+v", i, rep.Results[i], ref.Results[i])
		}
	}
	if reran == 0 || reran >= u.Size() {
		t.Fatalf("resume re-detected %d faults, want a strict subset (>0, <%d)", reran, u.Size())
	}

	// A checkpoint from a different stimulus must be rejected loudly.
	other := sineRecord(64, 25, 3)
	if _, err := SimulateOpts(context.Background(), u, other, ExactDetector{},
		SimOptions{Checkpoint: ck2, CheckpointName: "t"}); err == nil {
		t.Fatal("checkpoint accepted for a different stimulus")
	}
}

// countingDetector is an exact detector that counts invocations.
type countingDetector struct{ n *int }

func (d countingDetector) Detect(good, faulty []int64) (bool, error) {
	*d.n++
	return ExactDetector{}.Detect(good, faulty)
}
