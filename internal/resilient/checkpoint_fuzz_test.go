package resilient_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"mstx/internal/campaign"
	"mstx/internal/mcengine"
	"mstx/internal/resilient"
	"mstx/internal/soc"
)

// envelope mirrors the checkpoint container resilient writes (gob
// matches it by field names), so the fuzz harness can put an arbitrary
// payload under a valid CRC.
type envelope struct {
	Magic   string
	Name    string
	Version int
	Payload []byte
	CRC     uint32
}

// resumeTarget is one engine state that resumes from a checkpoint.
type resumeTarget struct {
	// name is the snapshot name the engine saves under.
	name string
	// site is the failpoint that interrupts a seed run mid-way.
	site string
	// run runs the engine over ck and returns its error; on success it
	// fails t unless the result is well formed.
	run func(t testing.TB, ck *resilient.Checkpointer) error
}

// resumeTargets are the engine states a resume decodes: a merged
// mcengine.Run prefix, the SOC sweep's width lanes (laneSched) and the
// stuck-at campaign's runTotal. Their inputs are built once, so a fuzz
// execution pays only for the resume.
func resumeTargets(t testing.TB) []resumeTarget {
	s := chaosSOC()
	widths := []int{1, 2, 3, 4}
	exact, xs := chaosExact(t, campaign.Options{})
	return []resumeTarget{
		{name: "mc", site: "mcengine.lane", run: func(t testing.TB, ck *resilient.Checkpointer) error {
			const n = 16
			_, done, err := mcRun(context.Background(), n, mcengine.Options{BatchSize: 4, Workers: 1, Checkpoint: ck})
			if err == nil && (done < 0 || done > n) {
				t.Fatalf("resumed MC run merged %d of %d samples", done, n)
			}
			return err
		}},
		{name: "soc_lanes", site: "soc.schedule", run: func(t testing.TB, ck *resilient.Checkpointer) error {
			scheds, err := soc.PlanSweep(context.Background(), s, widths, soc.Options{Iterations: 8, Workers: 1, Checkpoint: ck})
			if err != nil {
				return err
			}
			if len(scheds) != len(widths) {
				t.Fatalf("resumed sweep returned %d schedules for %d widths", len(scheds), len(widths))
			}
			for _, sch := range scheds {
				if err := sch.Validate(s); err != nil {
					t.Fatalf("resumed sweep published an invalid schedule: %v", err)
				}
			}
			return nil
		}},
		{name: "campaign", site: "campaign.sim_batch", run: func(t testing.TB, ck *resilient.Checkpointer) error {
			eng, err := campaign.New(exact.U, exact.Det, campaign.Options{DetectWorkers: 1, Checkpoint: ck})
			if err != nil {
				t.Fatal(err)
			}
			rep, _, err := eng.Run(context.Background(), xs)
			if err != nil {
				return err
			}
			if len(rep.Results) != eng.U.Size() {
				t.Fatalf("resumed campaign reported %d of %d faults", len(rep.Results), eng.U.Size())
			}
			for i, r := range rep.Results {
				if r.Fault != eng.U.Faults[i] {
					t.Fatalf("resumed campaign entry %d is fault %v, want %v", i, r.Fault, eng.U.Faults[i])
				}
			}
			return nil
		}},
	}
}

// readEnvelope loads the container saved under name in dir.
func readEnvelope(t testing.TB, dir, name string) envelope {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, name+".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&env); err != nil {
		t.Fatal(err)
	}
	return env
}

// FuzzCheckpointDecode resumes the engines from arbitrary snapshot
// payloads. The input picks the engine state (target modulo the number
// of resumeTargets) and supplies the gob payload; the harness stores it
// in a container with the engine's own name and version and a
// recomputed CRC, so every input gets past the CRC check and reaches
// gob and the engine's checks of what it decoded. The contract under
// fuzz: a resume never panics, and either fails with a
// *resilient.CheckpointError (an undecodable payload, a snapshot of
// another run, or a merged state that does not fit this run) or
// finishes with a well-formed result. The seed corpus under
// testdata/fuzz/FuzzCheckpointDecode holds each engine's complete and
// interrupted snapshots; the live ones are added as seeds too.
func FuzzCheckpointDecode(f *testing.F) {
	targets := resumeTargets(f)
	templates := make([]envelope, len(targets))
	for i, tg := range targets {
		// A complete run, then one interrupted after its first lane:
		// the two snapshot shapes a resume meets.
		dir := f.TempDir()
		if err := tg.run(f, &resilient.Checkpointer{Dir: dir, Every: 1}); err != nil {
			f.Fatal(err)
		}
		templates[i] = readEnvelope(f, dir, tg.name)
		f.Add(uint8(i), templates[i].Payload)

		dir = f.TempDir()
		fp := resilient.NewFailpoints()
		fp.Set(tg.site, resilient.Action{Err: errors.New("interrupted"), After: 1})
		resilient.Install(fp)
		err := tg.run(f, &resilient.Checkpointer{Dir: dir, Every: 1})
		resilient.Install(nil)
		if err == nil {
			f.Fatalf("%s: the interrupted seed run finished", tg.name)
		}
		f.Add(uint8(i), readEnvelope(f, dir, tg.name).Payload)
	}
	// Executions run one at a time in each fuzz process, so they share
	// one snapshot directory. The resumed run saves only at its end.
	dir := f.TempDir()
	ck := &resilient.Checkpointer{Dir: dir, Every: 1 << 30, Resume: true}
	f.Fuzz(func(t *testing.T, target uint8, payload []byte) {
		tg := targets[int(target)%len(targets)]
		env := templates[int(target)%len(targets)]
		env.Payload, env.CRC = payload, crc32.ChecksumIEEE(payload)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(env); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, tg.name+".ckpt"), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		err := tg.run(t, ck)
		var ce *resilient.CheckpointError
		if err != nil && !errors.As(err, &ce) {
			t.Fatalf("%s: resume failed with an untyped error: %v", tg.name, err)
		}
	})
}
