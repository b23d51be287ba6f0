package fault_test

// Resilience of the exact-compare stuck-at campaign (ExactDetector over
// an uncollapsed universe) as it runs in the repository: on the one
// campaign engine, campaign.Engine. This is an external test package so
// it can import campaign, which imports fault.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"mstx/internal/campaign"
	"mstx/internal/digital"
	"mstx/internal/fault"
	"mstx/internal/resilient"
)

// exactCampaign returns an uncollapsed universe of a small FIR (plenty
// of batches) and a sine stimulus of n samples.
func exactCampaign(t *testing.T, n int) (*fault.Universe, []int64) {
	t.Helper()
	fir, err := digital.NewFIR([]int64{3, -5, 7}, 6)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(math.Round(28 * math.Sin(2*math.Pi*5*float64(i)/float64(n))))
	}
	return fault.NewUniverse(fir, false), xs
}

// runExact runs one exact-compare campaign with opts.
func runExact(t *testing.T, u *fault.Universe, det fault.Detector, opts campaign.Options, xs []int64) (*fault.Report, error) {
	t.Helper()
	eng, err := campaign.New(u, det, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := eng.Run(context.Background(), xs)
	return rep, err
}

// firstRecordErrDetector errors on the very first record pair it sees —
// the regression shape for the early-error drain path.
type firstRecordErrDetector struct{}

func (firstRecordErrDetector) Detect(good, faulty []int64) (bool, error) {
	return false, errors.New("first record rejected")
}

// TestSimulateEarlyErrorNoGoroutineLeak: a detector that errors on the
// first record must not leave pool goroutines behind, and repeated
// failing campaigns must not accumulate any.
func TestSimulateEarlyErrorNoGoroutineLeak(t *testing.T) {
	u, xs := exactCampaign(t, 128)
	baseline := runtime.NumGoroutine() + 2 // tolerate runtime jitter
	for trial := 0; trial < 20; trial++ {
		if _, err := runExact(t, u, firstRecordErrDetector{}, campaign.Options{}, xs); err == nil {
			t.Fatal("erroring detector did not surface")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d live, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cancelingDetector cancels its context on the first detected fault,
// then keeps detecting by exact compare.
type cancelingDetector struct{ cancel context.CancelFunc }

func (d cancelingDetector) Detect(good, faulty []int64) (bool, error) {
	hit, err := fault.ExactDetector{}.Detect(good, faulty)
	if hit {
		d.cancel()
	}
	return hit, err
}

func TestSimulateCancelReturnsTypedPartial(t *testing.T) {
	u, xs := exactCampaign(t, 128)

	// Already-expired deadline: nothing may run, but the report still
	// carries every fault's identity.
	eng, err := campaign.New(u, fault.ExactDetector{}, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	rep, _, err := eng.Run(ctx, xs)
	if !errors.Is(err, resilient.ErrDeadline) {
		t.Fatalf("expired deadline returned %v, want ErrDeadline", err)
	}
	if !resilient.Interrupted(err) {
		t.Fatalf("Interrupted(%v) = false", err)
	}
	if rep == nil || len(rep.Results) != u.Size() {
		t.Fatal("partial report missing or wrong length")
	}
	for i, r := range rep.Results {
		if r.Fault != u.Faults[i] {
			t.Fatalf("entry %d is fault %v, want %v", i, r.Fault, u.Faults[i])
		}
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
	eng, err = campaign.New(u, cancelingDetector{cancel: ccancel}, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err = eng.Run(cctx, xs)
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

func TestSimulateQuarantineIsolatesPanickingBatch(t *testing.T) {
	u, xs := exactCampaign(t, 64)
	ref, err := runExact(t, u, fault.ExactDetector{}, campaign.Options{}, xs)
	if err != nil {
		t.Fatal(err)
	}

	fp := resilient.NewFailpoints()
	fp.Set("campaign.sim_batch", resilient.Action{PanicValue: "batch corrupted", Times: 1})
	resilient.Install(fp)
	rep, err := runExact(t, u, fault.ExactDetector{}, campaign.Options{Quarantine: true}, xs)
	resilient.Install(nil)
	if err != nil {
		t.Fatalf("quarantined campaign failed: %v", err)
	}
	q := rep.Quarantined()
	if q == 0 || q > 63 {
		t.Fatalf("quarantined %d faults, want one batch's worth (1..63)", q)
	}
	// Quarantined lanes keep their identity and no verdict; all other
	// lanes must match the uninjected reference run exactly.
	for i, r := range rep.Results {
		if r.Quarantined {
			if r.Detected || r.FirstDiff != -1 || r.Fault != u.Faults[i] {
				t.Fatalf("quarantined entry %d carries a verdict or a foreign fault: %+v", i, r)
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
	fp2.Set("campaign.sim_batch", resilient.Action{PanicValue: "batch corrupted", Times: 1})
	resilient.Install(fp2)
	_, err = runExact(t, u, fault.ExactDetector{}, campaign.Options{}, xs)
	resilient.Install(nil)
	var pe *resilient.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic without quarantine returned %v, want *PanicError", err)
	}
	if pe.Value != "batch corrupted" {
		t.Fatalf("PanicError.Value = %v", pe.Value)
	}
}

func TestSimulateCheckpointResumeBitIdentical(t *testing.T) {
	u, xs := exactCampaign(t, 64)
	ref, err := runExact(t, u, fault.ExactDetector{}, campaign.Options{}, xs)
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
	fp.Set("campaign.detect_batch", resilient.Action{Err: boom, After: 2})
	resilient.Install(fp)
	_, err = runExact(t, u, fault.ExactDetector{},
		campaign.Options{DetectWorkers: 1, Checkpoint: ck, CheckpointName: "t"}, xs)
	resilient.Install(nil)
	if !errors.Is(err, boom) {
		t.Fatalf("injected crash returned %v", err)
	}

	// Resume must re-run only the missing batches and land exactly on
	// the reference report.
	ck2 := &resilient.Checkpointer{Dir: dir, Every: 1, Resume: true}
	fp = resilient.NewFailpoints()
	resilient.Install(fp)
	rep, err := runExact(t, u, fault.ExactDetector{},
		campaign.Options{DetectWorkers: 1, Checkpoint: ck2, CheckpointName: "t"}, xs)
	resilient.Install(nil)
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
	if reran := fp.Hits("campaign.sim_batch"); reran == 0 || reran >= nBatches {
		t.Fatalf("resume re-ran %d batches, want a strict subset (>0, <%d)", reran, nBatches)
	}

	// A checkpoint from a different stimulus must be rejected loudly.
	_, other := exactCampaign(t, 32)
	var ce *resilient.CheckpointError
	if _, err := runExact(t, u, fault.ExactDetector{},
		campaign.Options{Checkpoint: ck2, CheckpointName: "t"}, other); !errors.As(err, &ce) {
		t.Fatalf("checkpoint of another stimulus resumed (err %v), want a CheckpointError", err)
	}
}
