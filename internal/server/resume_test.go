package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mstx/internal/resilient"
)

// TestKillAndResume is the service-level crash test: a SIGKILL-style
// stop of the scheduler mid-job (in-process Kill), then a fresh server
// against the same checkpoint directory. The resumed job must finish
// with a result bit-identical to an uninterrupted run — which for the
// mc kind is exactly the checked-in E6 Table 2 golden.
func TestKillAndResume(t *testing.T) {
	defer resilient.Install(nil)
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()

	// Reference: the uninterrupted run, straight through the adapter —
	// the E6 golden configuration (Devices 6, capture length 1024).
	spec := Spec{Kind: "mc", Devices: 6, CaptureN: 1024}
	tk, err := newTask(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.prepare(context.Background()); err != nil {
		t.Fatal(err)
	}
	ref, err := tk.run(context.Background(), taskEnv{})
	if err != nil {
		t.Fatal(err)
	}

	// Server A: slow the engine lanes down so the kill lands mid-run,
	// with checkpoints at every round barrier.
	fp := resilient.NewFailpoints()
	fp.Set("mcengine.lane", resilient.Action{Delay: 2 * time.Millisecond})
	resilient.Install(fp)
	srvA, err := New(Config{Workers: 1, CheckpointDir: dir, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, err := srvA.Submit("crash", Spec{Kind: "mc", Devices: 6, CaptureN: 1024})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srvA.Snapshot(j).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Let a few round barriers checkpoint, then pull the plug.
	jobDir := filepath.Join(dir, "job_"+j.ID)
	for {
		if ents, err := os.ReadDir(jobDir); err == nil && len(ents) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no engine checkpoint appeared before the kill")
		}
		time.Sleep(2 * time.Millisecond)
	}
	srvA.Kill()
	resilient.Install(nil)
	if s := srvA.Snapshot(j); s.State != StateRunning && s.State != StateQueued {
		t.Fatalf("killed job transitioned to %s; ledger would not resume it", s.State)
	}

	// Server B: same directory, resume on. The ledger replays the job
	// and the engine restarts from its snapshots.
	srvB, err := New(Config{Workers: 1, CheckpointDir: dir, CheckpointEvery: 1, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	jB, ok := srvB.Get(j.ID)
	if !ok {
		t.Fatalf("job %s not replayed from the ledger", j.ID)
	}
	select {
	case <-jB.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("resumed job never finished")
	}
	final := srvB.Snapshot(jB)
	if final.State != StateDone {
		t.Fatalf("resumed job ended %s %+v", final.State, final.Error)
	}
	if final.Result.Text != ref.Text {
		t.Fatalf("resumed result differs from uninterrupted run:\n--- resumed\n%s--- reference\n%s",
			final.Result.Text, ref.Text)
	}

	// The spec is the golden configuration, so the resumed result must
	// also match the checked-in E6 golden byte for byte.
	golden, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", "e6_table2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimRight(final.Result.Text, "\n") != strings.TrimRight(string(golden), "\n") {
		t.Fatalf("resumed result differs from the E6 golden:\n%s", final.Result.Text)
	}

	srvB.Close()
	settle(t, baseline)
}

// TestResumeServesTerminalJobs checks the other half of the ledger:
// finished jobs (and their results) survive a restart, and a cached
// identity is re-served without recomputation.
func TestResumeServesTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	srvA, err := New(Config{Workers: 1, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j, err := srvA.Submit("t", quickTranslate())
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	want := srvA.Snapshot(j)
	if want.State != StateDone {
		t.Fatalf("job ended %s", want.State)
	}
	srvA.Close()

	srvB, err := New(Config{Workers: 1, CheckpointDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	jB, ok := srvB.Get(j.ID)
	if !ok {
		t.Fatal("terminal job lost across restart")
	}
	got := srvB.Snapshot(jB)
	if got.State != StateDone || got.Result == nil || got.Result.Text != want.Result.Text {
		t.Fatalf("terminal job corrupted across restart: %+v", got)
	}

	// Identical submit on the restarted server: the seeded cache must
	// serve it without touching the engine.
	j2, err := srvB.Submit("t", quickTranslate())
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	got2 := srvB.Snapshot(j2)
	if got2.State != StateDone || !got2.CacheHit || got2.Result.Text != want.Result.Text {
		t.Fatalf("restarted cache miss: %+v", got2)
	}
	if srvB.Registry().Counters()["server_cache_misses_total"] != 0 {
		t.Fatal("restarted server recomputed a ledgered identity")
	}
}

// TestResumeValidatesLedger: resume is the one place a ledger string
// becomes a State or ErrType. A hand-written, CRC-valid ledger with a
// name outside the tables, or a done/partial record without the result
// /result would serve, resumes as failed/engine with a message naming
// the bad value — never as a job that is stuck non-terminal or that
// panics the result handler.
func TestResumeValidatesLedger(t *testing.T) {
	for _, tc := range []struct {
		name           string
		state, errType string
		wantState      State
		wantType       ErrType
		wantMsg        string
	}{
		{"unknown state", "bogus", "", StateFailed, ErrTypeEngine, `"bogus"`},
		{"unknown error type", "failed", "oops", StateFailed, ErrTypeEngine, `"oops"`},
		{"done without result", "done", "", StateFailed, ErrTypeEngine, "done job has no result"},
		{"partial without result", "partial", "", StateFailed, ErrTypeEngine, "partial job has no result"},
		{"deadline without result", "deadline_exceeded", "deadline", StateDeadline, ErrTypeDeadline, "budget"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ledger := &resilient.Checkpointer{Dir: dir}
			st := ledgerState{NextID: 1, Jobs: []ledgerRecord{{
				ID: "j1", Tenant: "t", Spec: quickTranslate(),
				State: tc.state, ErrType: tc.errType, ErrMsg: "wall budget spent",
			}}}
			if err := ledger.Save(ledgerName, ledgerVersion, &st); err != nil {
				t.Fatal(err)
			}
			_, ts := newTestService(t, Config{Workers: 1, CheckpointDir: dir, Resume: true})

			snap := getJob(t, ts, "j1")
			if snap.State != tc.wantState || snap.Error == nil || snap.Error.Type != tc.wantType ||
				!strings.Contains(snap.Error.Message, tc.wantMsg) {
				t.Fatalf("resumed as %s %+v; want %s/%s naming %s", snap.State, snap.Error, tc.wantState, tc.wantType, tc.wantMsg)
			}
			resp, err := http.Get(ts.URL + "/v1/jobs/j1/result")
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusConflict {
				t.Errorf("/result status %d, want 409", resp.StatusCode)
			}
			if eb := errorBody(t, resp); eb.Type != tc.wantType {
				t.Errorf("/result error type %s, want %s", eb.Type, tc.wantType)
			}
			resp, err = http.Get(ts.URL + "/v1/jobs/j1/events")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(body), "event: done\n") {
				t.Errorf("event stream closed without a done event:\n%s", body)
			}
		})
	}
}

// TestResumeKeepsRestoredIDs: a ledger whose NextID lags behind a
// restored "j<n>" must not make Submit issue that ID again, which
// would overwrite the restored job and list its ID twice.
func TestResumeKeepsRestoredIDs(t *testing.T) {
	dir := t.TempDir()
	ledger := &resilient.Checkpointer{Dir: dir}
	st := ledgerState{NextID: 1}
	for _, id := range []string{"j1", "j2"} {
		st.Jobs = append(st.Jobs, ledgerRecord{
			ID: id, Tenant: "t", Spec: quickTranslate(),
			State: "done", Result: &Result{Text: "restored " + id},
		})
	}
	if err := ledger.Save(ledgerName, ledgerVersion, &st); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Workers: 1, CheckpointDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	j, err := srv.Submit("t", quickTranslate())
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "j3" {
		t.Errorf("Submit after resume issued %s, want j3", j.ID)
	}
	restored, ok := srv.Get("j2")
	if !ok {
		t.Fatal("restored job j2 lost")
	}
	if snap := srv.Snapshot(restored); snap.Result == nil || snap.Result.Text != "restored j2" {
		t.Errorf("restored job j2 overwritten: %+v", snap)
	}
	srv.mu.Lock()
	order := append([]string(nil), srv.order...)
	srv.mu.Unlock()
	if want := []string{"j1", "j2", "j3"}; !reflect.DeepEqual(order, want) {
		t.Errorf("job order %v, want %v", order, want)
	}
}

// TestResumeRejectsRepeatedID: a ledger that lists one job ID twice
// cannot be replayed without one job replacing the other, so New fails
// with a LedgerError naming the ID.
func TestResumeRejectsRepeatedID(t *testing.T) {
	dir := t.TempDir()
	ledger := &resilient.Checkpointer{Dir: dir}
	rec := ledgerRecord{ID: "j1", Tenant: "t", Spec: quickTranslate(), State: "done", Result: &Result{Text: "x"}}
	st := ledgerState{NextID: 1, Jobs: []ledgerRecord{rec, rec}}
	if err := ledger.Save(ledgerName, ledgerVersion, &st); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Workers: 1, CheckpointDir: dir, Resume: true})
	if err == nil {
		srv.Close()
		t.Fatal("resume accepted a ledger listing j1 twice")
	}
	var le *LedgerError
	if !errors.As(err, &le) || le.ID != "j1" || !strings.Contains(err.Error(), "j1") {
		t.Fatalf("resume error %v; want a LedgerError naming j1", err)
	}
}

// TestEveryKindCheckpoints: each job kind's adapter hands the job's
// checkpointer to its engine, and the engine writes to it, so a retry
// or a Resume restart continues the job instead of recomputing it. An
// adapter that drops env.ckpt, or an engine that never saves, leaves
// job_<id>/ without a checkpoint.
func TestEveryKindCheckpoints(t *testing.T) {
	specs := map[string]Spec{
		"campaign":  {Kind: "campaign", Patterns: 64},
		"mc":        {Kind: "mc", Devices: 2, CaptureN: 64, MCSamples: 1000},
		"translate": quickTranslate(),
		"soc":       quickSOC(),
	}
	for _, kind := range jobKinds {
		t.Run(kind, func(t *testing.T) {
			spec, ok := specs[kind]
			if !ok {
				t.Fatalf("no test spec for job kind %s", kind)
			}
			dir := t.TempDir()
			srv, err := New(Config{Workers: 1, CheckpointDir: dir, CheckpointEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			j, err := srv.Submit("ckpt", spec)
			if err != nil {
				t.Fatal(err)
			}
			<-j.Done()
			if snap := srv.Snapshot(j); snap.State != StateDone {
				t.Fatalf("job ended %s %+v", snap.State, snap.Error)
			}
			ckpts, err := filepath.Glob(filepath.Join(dir, "job_"+j.ID, "*.ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			if len(ckpts) == 0 {
				t.Fatalf("%s job wrote no engine checkpoint under job_%s/", kind, j.ID)
			}
		})
	}
}
