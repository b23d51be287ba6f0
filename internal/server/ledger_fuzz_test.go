package server

import (
	"errors"
	"strings"
	"testing"

	"mstx/internal/resilient"
)

// FuzzLedgerRestore drives resume with arbitrary job ledgers. The
// input is the ledger's NextID and its records, one a line, as
// `id|state|errtype|result|identity` (a non-empty result field attaches
// a result). The ledger is saved through the real Checkpointer, so its
// CRC is valid and every input reaches resume. The contract under
// fuzz: New never panics; any error is a LedgerError; restored job IDs
// are unique; a following Submit never reuses a restored ID; and every
// restored done or partial job has a result. The seed corpus under
// testdata/fuzz/FuzzLedgerRestore holds the ledgers resume_test.go
// writes.
func FuzzLedgerRestore(f *testing.F) {
	f.Fuzz(func(t *testing.T, nextID int64, records string) {
		st := ledgerState{NextID: nextID}
		restored := map[string]bool{}
		for _, line := range strings.Split(records, "\n") {
			if line == "" {
				continue
			}
			field := strings.Split(line, "|")
			get := func(i int) string {
				if i < len(field) {
					return field[i]
				}
				return ""
			}
			rec := ledgerRecord{
				ID: get(0), Tenant: "fuzz", Spec: quickTranslate(),
				State: get(1), ErrType: get(2), Identity: get(4),
			}
			if get(3) != "" {
				rec.Result = &Result{Text: get(3)}
			}
			st.Jobs = append(st.Jobs, rec)
			restored[rec.ID] = true
		}
		dir := t.TempDir()
		if err := (&resilient.Checkpointer{Dir: dir}).Save(ledgerName, ledgerVersion, &st); err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Workers: 1, CheckpointDir: dir, Resume: true})
		if err != nil {
			var le *LedgerError
			if !errors.As(err, &le) {
				t.Fatalf("resume failed with an untyped error: %v", err)
			}
			return
		}
		defer srv.Close()

		if j, err := srv.Submit("fuzz", quickTranslate()); err == nil && restored[j.ID] {
			t.Fatalf("Submit reused the restored job ID %s", j.ID)
		}
		srv.mu.Lock()
		order := append([]string(nil), srv.order...)
		jobs := len(srv.jobs)
		srv.mu.Unlock()
		seen := map[string]bool{}
		for _, id := range order {
			if seen[id] {
				t.Fatalf("job ID %s listed twice: %v", id, order)
			}
			seen[id] = true
			j, _ := srv.Get(id)
			if snap := srv.Snapshot(j); (snap.State == StateDone || snap.State == StatePartial) && snap.Result == nil {
				t.Fatalf("restored %s job %s has no result", snap.State, id)
			}
		}
		if jobs != len(order) {
			t.Fatalf("%d jobs but %d listed", jobs, len(order))
		}
	})
}
