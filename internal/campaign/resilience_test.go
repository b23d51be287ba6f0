package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"mstx/internal/fault"
	"mstx/internal/mcengine"
	"mstx/internal/resilient"
)

// TestRunEarlyErrorNoGoroutineLeak is the satellite regression: an
// error on the first batch — injected at the detect stage, or returned
// by the detector itself on the first faulty record — must stop the
// pool with no worker left behind, and repeated failing campaigns must
// not accumulate goroutines.
func TestRunEarlyErrorNoGoroutineLeak(t *testing.T) {
	u, det, xs := buildCampaign(t, 512, 45)
	baseline := runtime.NumGoroutine() + 2
	for trial := 0; trial < 10; trial++ {
		// One worker maximizes the chance the pool is mid-claim when
		// the error lands.
		eng, err := New(u, det, Options{DetectWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		fp := resilient.NewFailpoints()
		boom := errors.New("detect rejected")
		fp.Set("campaign.detect_batch", resilient.Action{Err: boom})
		resilient.Install(fp)
		_, _, err = eng.Run(context.Background(), xs)
		resilient.Install(nil)
		if !errors.Is(err, boom) {
			t.Fatalf("trial %d: got %v, want the injected error", trial, err)
		}
		eng, err = New(u, errDetector{}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := eng.Run(context.Background(), xs); err == nil {
			t.Fatalf("trial %d: erroring detector did not surface", trial)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d live, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cancelingDetector cancels its context on the first faulty record,
// then keeps detecting by exact compare.
type cancelingDetector struct{ cancel context.CancelFunc }

func (d cancelingDetector) Detect(good, faulty []int64) (bool, error) {
	if !slices.Equal(good, faulty) {
		d.cancel()
	}
	return fault.ExactDetector{}.Detect(good, faulty)
}

func TestRunCancelReturnsTypedPartial(t *testing.T) {
	u, det, xs := buildCampaign(t, 512, 45)
	for _, row := range rows(det) {
		eng, err := New(u, row.det, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Already-expired deadline: nothing may run, but the report
		// still carries every fault's identity.
		ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
		rep, stats, err := eng.Run(ctx, xs)
		cancel()
		if !errors.Is(err, resilient.ErrDeadline) {
			t.Fatalf("%s: expired deadline returned %v, want ErrDeadline", row.name, err)
		}
		if rep == nil || len(rep.Results) != u.Size() {
			t.Fatalf("%s: partial report missing or wrong length", row.name)
		}
		if stats == nil {
			t.Fatalf("%s: partial stats missing", row.name)
		}
		for i, r := range rep.Results {
			if r.Fault != u.Faults[i] {
				t.Fatalf("%s: entry %d is fault %v, want %v", row.name, i, r.Fault, u.Faults[i])
			}
			if r.Detected || r.Quarantined {
				t.Fatalf("%s: no batch ran, but fault %v carries a verdict", row.name, r.Fault)
			}
			if r.FirstDiff != -1 {
				t.Fatalf("%s: unprocessed fault %v has FirstDiff %d, want -1", row.name, r.Fault, r.FirstDiff)
			}
		}

		cctx, ccancel := context.WithCancel(context.Background())
		ccancel()
		if _, _, err := eng.Run(cctx, xs); !errors.Is(err, resilient.ErrCanceled) {
			t.Fatalf("%s: canceled ctx returned %v, want ErrCanceled", row.name, err)
		}
	}

	// Mid-run cancel by a detector that pulls the trigger: later
	// batches are skipped, and the error is ErrCanceled, not a deadline.
	cctx, ccancel := context.WithCancel(context.Background())
	defer ccancel()
	eng, err := New(u, cancelingDetector{cancel: ccancel}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := eng.Run(cctx, xs)
	if !errors.Is(err, resilient.ErrCanceled) || errors.Is(err, resilient.ErrDeadline) {
		t.Fatalf("mid-run cancel returned %v, want ErrCanceled", err)
	}
	if rep == nil || len(rep.Results) != u.Size() {
		t.Fatal("mid-run partial report missing")
	}
}

func TestRunQuarantineBothStages(t *testing.T) {
	u, det, xs := buildCampaign(t, 512, 45)
	for _, row := range rows(det) {
		ref, err := mustRun(t, u, row.det, Options{}, xs)
		if err != nil {
			t.Fatal(err)
		}
		for _, site := range []string{"campaign.sim_batch", "campaign.detect_batch"} {
			fp := resilient.NewFailpoints()
			fp.Set(site, resilient.Action{PanicValue: site + " corrupted", Times: 1})
			resilient.Install(fp)
			eng, err := New(u, row.det, Options{Quarantine: true})
			if err != nil {
				t.Fatal(err)
			}
			rep, stats, err := eng.Run(context.Background(), xs)
			resilient.Install(nil)
			if err != nil {
				t.Fatalf("%s %s: quarantined campaign failed: %v", row.name, site, err)
			}
			if stats.Quarantined == 0 || stats.Quarantined > 63 {
				t.Fatalf("%s %s: quarantined %d faults, want one batch's worth", row.name, site, stats.Quarantined)
			}
			if rep.Quarantined() != stats.Quarantined {
				t.Fatalf("%s %s: report says %d quarantined, stats say %d",
					row.name, site, rep.Quarantined(), stats.Quarantined)
			}
			// Quarantined lanes keep their identity and no verdict; all
			// other lanes match the uninjected reference exactly.
			for i, r := range rep.Results {
				if r.Quarantined {
					if r.Detected || r.FirstDiff != -1 || r.Fault != u.Faults[i] {
						t.Fatalf("%s %s: quarantined entry %d carries a verdict or a foreign fault: %+v", row.name, site, i, r)
					}
					continue
				}
				if r != ref.Results[i] {
					t.Fatalf("%s %s: lane %d diverged: %+v vs %+v", row.name, site, i, r, ref.Results[i])
				}
			}
			// Without Quarantine the panic surfaces as *PanicError and
			// the process survives.
			fp2 := resilient.NewFailpoints()
			fp2.Set(site, resilient.Action{PanicValue: "boom", Times: 1})
			resilient.Install(fp2)
			eng2, err := New(u, row.det, Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = eng2.Run(context.Background(), xs)
			resilient.Install(nil)
			var pe *resilient.PanicError
			if !errors.As(err, &pe) || pe.Value != "boom" {
				t.Fatalf("%s %s: panic without quarantine returned %v, want *PanicError(boom)", row.name, site, err)
			}
		}
	}
}

func TestRunCheckpointResumeBitIdentical(t *testing.T) {
	u, det, xs := buildCampaign(t, 512, 45)
	nBatches := (u.Size() + lanesPerBatch - 1) / lanesPerBatch
	if nBatches < 3 {
		t.Fatalf("universe too small for a mid-run kill: %d batches", nBatches)
	}
	for _, row := range rows(det) {
		refEng, err := New(u, row.det, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref, refStats, err := refEng.Run(context.Background(), xs)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		resume := func() *Engine {
			eng, err := New(u, row.det, Options{
				Checkpoint: &resilient.Checkpointer{Dir: dir, Every: 1, Resume: true}, CheckpointName: "t",
			})
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}

		// First attempt dies after two detect batches.
		fp := resilient.NewFailpoints()
		boom := errors.New("injected crash")
		fp.Set("campaign.detect_batch", resilient.Action{Err: boom, After: 2})
		resilient.Install(fp)
		eng, err := New(u, row.det, Options{
			DetectWorkers: 1,
			Checkpoint:    &resilient.Checkpointer{Dir: dir, Every: 1}, CheckpointName: "t",
		})
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = eng.Run(context.Background(), xs)
		resilient.Install(nil)
		if !errors.Is(err, boom) {
			t.Fatalf("%s: injected crash returned %v", row.name, err)
		}

		// Resume: only the missing batches run, and the report is
		// bit-identical to the uninterrupted reference.
		fp = resilient.NewFailpoints()
		resilient.Install(fp)
		rep, stats, err := resume().Run(context.Background(), xs)
		resilient.Install(nil)
		if err != nil {
			t.Fatalf("%s: resume failed: %v", row.name, err)
		}
		if reran := fp.Hits("campaign.sim_batch"); reran == 0 || reran >= nBatches {
			t.Fatalf("%s: resume ran %d batches, want a strict subset (>0, <%d)", row.name, reran, nBatches)
		}
		if len(rep.Results) != len(ref.Results) {
			t.Fatalf("%s: result count mismatch", row.name)
		}
		for i := range rep.Results {
			if rep.Results[i] != ref.Results[i] {
				t.Fatalf("%s: lane %d: resumed %+v != reference %+v", row.name, i, rep.Results[i], ref.Results[i])
			}
		}
		// Counter restoration: the resumed Stats equal the
		// uninterrupted run's, field by field.
		if *stats != *refStats {
			t.Fatalf("%s: resumed stats %+v != uninterrupted %+v", row.name, *stats, *refStats)
		}

		// A second resume finds everything done and recomputes nothing
		// beyond the good-record verdict.
		rep3, stats3, err := resume().Run(context.Background(), xs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rep3.Results {
			if rep3.Results[i] != ref.Results[i] {
				t.Fatalf("%s: second resume diverged at lane %d", row.name, i)
			}
		}
		if *stats3 != *refStats {
			t.Fatalf("%s: second resume stats %+v != uninterrupted %+v", row.name, *stats3, *refStats)
		}

		// A different stimulus must be rejected loudly.
		other := append([]int64(nil), xs...)
		other[0]++
		var ce *resilient.CheckpointError
		if _, _, err := resume().Run(context.Background(), other); !errors.As(err, &ce) {
			t.Fatalf("%s: checkpoint of another stimulus resumed (err %v), want a CheckpointError", row.name, err)
		}
	}

	// A checkpoint of one detector's campaign never resumes the other's:
	// the detector type is part of the identity.
	dir := t.TempDir()
	ck := func(resume bool) Options {
		return Options{Checkpoint: &resilient.Checkpointer{Dir: dir, Every: 1, Resume: resume}, CheckpointName: "t"}
	}
	if _, err := mustRun(t, u, det, ck(false), xs); err != nil {
		t.Fatal(err)
	}
	var ce *resilient.CheckpointError
	if _, err := mustRun(t, u, fault.ExactDetector{}, ck(true), xs); !errors.As(err, &ce) {
		t.Fatalf("exact campaign resumed a spectral checkpoint (err %v)", err)
	}
}

// memoEraTotal is the merged prefix a campaign checkpointed while it
// memoized verdicts: memo hits were counted apart from Spectra.
type memoEraTotal struct {
	Results                                  []fault.Result
	Screened, Memoized, Spectra, Quarantined int
}

// TestRunRefusesMemoEraCheckpoint: a snapshot saved under the identity
// string campaigns used while they memoized verdicts is refused, since
// resuming its counters would break Stats' exact accounting. The same
// snapshot under the current identity resumes, so the identity alone
// refuses it.
func TestRunRefusesMemoEraCheckpoint(t *testing.T) {
	u, det, xs := buildCampaign(t, 512, 45)
	dir := t.TempDir()
	eng, err := New(u, det, Options{
		DetectWorkers: 1,
		Checkpoint:    &resilient.Checkpointer{Dir: dir, Every: 1, Resume: true}, CheckpointName: "t",
	})
	if err != nil {
		t.Fatal(err)
	}
	// save writes a complete snapshot under ident whose results carry
	// each fault's bare identity and whose counters split memo hits
	// from spectra.
	save := func(ident string) {
		plan := mcengine.Plan[memoEraTotal, []fault.Result]{
			N: u.Size(), BatchSize: lanesPerBatch, Workers: 1,
			Checkpoint: &resilient.Checkpointer{Dir: dir, Every: 1}, CheckpointName: "t", Ident: ident,
			Kernel: func(_, lane, count int) ([]fault.Result, error) {
				var b []fault.Result
				for i := lane * lanesPerBatch; i < lane*lanesPerBatch+count; i++ {
					b = append(b, eng.blank(i))
				}
				return b, nil
			},
			Merge: func(t memoEraTotal, _ int, b []fault.Result) memoEraTotal {
				t.Results = append(t.Results, b...)
				t.Memoized += len(b)
				return t
			},
		}
		if _, _, err := mcengine.Execute(context.Background(), plan, memoEraTotal{}); err != nil {
			t.Fatal(err)
		}
	}

	save(fmt.Sprintf("det=%T patterns=%d stim=%016x", det, len(xs), HashRecord(xs)))
	var ce *resilient.CheckpointError
	if _, _, err := eng.Run(context.Background(), xs); !errors.As(err, &ce) {
		t.Fatalf("memo-era checkpoint resumed (err %v), want a CheckpointError", err)
	}

	save(eng.ident(xs))
	fp := resilient.NewFailpoints()
	resilient.Install(fp)
	_, _, err = eng.Run(context.Background(), xs)
	resilient.Install(nil)
	if err != nil {
		t.Fatalf("snapshot under the current identity did not resume: %v", err)
	}
	if n := fp.Hits("campaign.sim_batch"); n != 0 {
		t.Fatalf("resume from a complete snapshot ran %d batches", n)
	}
}

// mustRun runs a fresh engine with opts and returns the report.
func mustRun(t *testing.T, u *fault.Universe, det fault.Detector, opts Options, xs []int64) (*fault.Report, error) {
	t.Helper()
	eng, err := New(u, det, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := eng.Run(context.Background(), xs)
	return rep, err
}
