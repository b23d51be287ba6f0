package mcengine

import (
	"sync"
	"sync/atomic"
	"time"

	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"mstx/internal/resilient"
	"testing"
)

// serialReference runs the same lane decomposition as Run with a plain
// loop — the reproducibility oracle for the engine's scheduling.
func serialReference[T, P any](n int, seed int64, opts Options, total T, kernel Kernel[P], merge Merge[T, P], stop Stop[T]) (T, int) {
	o := opts.withDefaults()
	lanes := Lanes(n, o.BatchSize)
	round := o.CheckEvery
	if round <= 0 || stop == nil {
		round = lanes
	}
	done := 0
	for lo := 0; lo < lanes; lo += round {
		hi := lo + round
		if hi > lanes {
			hi = lanes
		}
		for l := lo; l < hi; l++ {
			cnt := o.BatchSize
			if l == lanes-1 {
				cnt = n - l*o.BatchSize
			}
			rng := rand.New(rand.NewSource(SubstreamSeed(seed, l)))
			p, err := kernel(0, l, cnt, rng)
			if err != nil {
				panic(err)
			}
			total = merge(total, l, p)
			done += cnt
		}
		if hi < lanes && stop != nil && stop(total, done) {
			return total, done
		}
	}
	return total, done
}

// sumKernel accumulates a MeanVar over N(3, 2) draws — a kernel whose
// merged result is floating-point and therefore order-sensitive, so it
// detects any deviation from lane-order merging.
func sumKernel(_, _, count int, rng *rand.Rand) (MeanVar, error) {
	var mv MeanVar
	for i := 0; i < count; i++ {
		mv.Observe(3 + 2*rng.NormFloat64())
	}
	return mv, nil
}

func mergeMV(total MeanVar, _ int, part MeanVar) MeanVar {
	total.Merge(part)
	return total
}

func TestRunBitIdenticalAcrossWorkerCounts(t *testing.T) {
	const n = 50000
	opts := Options{BatchSize: 1024}
	want, wantDone := serialReference(n, 7, opts, MeanVar{}, sumKernel, mergeMV, nil)
	for _, workers := range []int{1, 2, 4, 16} {
		o := opts
		o.Workers = workers
		got, done, err := Run(context.Background(), n, 7, o, MeanVar{}, sumKernel, mergeMV, nil)
		if err != nil {
			t.Fatal(err)
		}
		if done != wantDone {
			t.Fatalf("workers=%d: %d samples, want %d", workers, done, wantDone)
		}
		if got != want { // exact float equality is the contract
			t.Errorf("workers=%d: %+v != serial %+v", workers, got, want)
		}
	}
	if math.Abs(want.Mean-3) > 0.05 || math.Abs(want.Std()-2) > 0.05 {
		t.Errorf("statistics off: mean %g std %g", want.Mean, want.Std())
	}
}

func TestRunEarlyStopDeterministic(t *testing.T) {
	const n = 100000
	stop := func(mv MeanVar, samples int) bool {
		return mv.StdErr() < 0.02 // hit after a few rounds, before n
	}
	opts := Options{BatchSize: 2048, CheckEvery: 3}
	want, wantDone := serialReference(n, 11, opts, MeanVar{}, sumKernel, mergeMV, stop)
	if wantDone >= n {
		t.Fatalf("reference did not stop early (done=%d); test mis-tuned", wantDone)
	}
	for _, workers := range []int{1, 4, 16} {
		o := opts
		o.Workers = workers
		got, done, err := Run(context.Background(), n, 11, o, MeanVar{}, sumKernel, mergeMV, stop)
		if err != nil {
			t.Fatal(err)
		}
		if done != wantDone || got != want {
			t.Errorf("workers=%d: (done=%d, %+v) != serial (done=%d, %+v)",
				workers, done, got, wantDone, want)
		}
	}
}

func TestRunPartialLastLane(t *testing.T) {
	// n not a multiple of BatchSize: the last lane must carry the
	// remainder and the totals must still match the serial reference.
	const n = 10*512 + 137
	counts := map[int]int{}
	kernel := func(_, lane, count int, rng *rand.Rand) (int, error) { return count, nil }
	merge := func(total, lane, part int) int {
		counts[lane] = part
		return total + part
	}
	total, done, err := Run(context.Background(), n, 3, Options{BatchSize: 512, Workers: 1}, 0, kernel, merge, nil)
	if err != nil {
		t.Fatal(err)
	}
	if total != n || done != n {
		t.Fatalf("total=%d done=%d want %d", total, done, n)
	}
	if counts[10] != 137 {
		t.Errorf("last lane count = %d, want 137", counts[10])
	}
}

func TestRunKernelErrorSurfaces(t *testing.T) {
	sentinel := errors.New("boom")
	kernel := func(_, lane, count int, rng *rand.Rand) (int, error) {
		if lane == 5 {
			return 0, sentinel
		}
		return count, nil
	}
	merge := func(total, lane, part int) int { return total + part }
	_, _, err := Run(context.Background(), 100000, 1, Options{BatchSize: 1024, Workers: 4}, 0, kernel, merge, nil)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

func TestRunValidation(t *testing.T) {
	merge := func(total, lane, part int) int { return total }
	if _, _, err := Run(context.Background(), 0, 1, Options{}, 0, func(_, _, _ int, _ *rand.Rand) (int, error) { return 0, nil }, merge, nil); err == nil {
		t.Error("n=0 accepted")
	}
	if _, _, err := Run[int, int](context.Background(), 10, 1, Options{}, 0, nil, merge, nil); err == nil {
		t.Error("nil kernel accepted")
	}
}

func TestSubstreamSeedsDecorrelated(t *testing.T) {
	seen := map[int64]int{}
	for lane := 0; lane < 1000; lane++ {
		s := SubstreamSeed(42, lane)
		if prev, dup := seen[s]; dup {
			t.Fatalf("lanes %d and %d share a substream seed", prev, lane)
		}
		seen[s] = lane
	}
	if SubstreamSeed(42, 0) == 42 {
		t.Error("lane 0 must not reuse the raw run seed")
	}
	if SubstreamSeed(42, 0) == SubstreamSeed(43, 0) {
		t.Error("different run seeds collide on lane 0")
	}
}

// TestRunMergeRace drives the engine at high worker counts so `go test
// -race` exercises the parts/merge hand-off; correctness is re-checked
// against the serial reference.
func TestRunMergeRace(t *testing.T) {
	const n = 200000
	opts := Options{BatchSize: 512, Workers: 16, CheckEvery: 8}
	stop := func(mv MeanVar, samples int) bool { return false }
	want, _ := serialReference(n, 5, opts, MeanVar{}, sumKernel, mergeMV, stop)
	for rep := 0; rep < 3; rep++ {
		got, _, err := Run(context.Background(), n, 5, opts, MeanVar{}, sumKernel, mergeMV, stop)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("rep %d: %+v != %+v", rep, got, want)
		}
	}
}

func ExampleRun() {
	// Estimate E[X²] of a standard normal with 4 workers; the result
	// is bit-identical at any worker count.
	kernel := func(_, _, count int, rng *rand.Rand) (MeanVar, error) {
		var mv MeanVar
		for i := 0; i < count; i++ {
			x := rng.NormFloat64()
			mv.Observe(x * x)
		}
		return mv, nil
	}
	mv, _, _ := Run(context.Background(), 400000, 1, Options{Workers: 4}, MeanVar{},
		kernel, func(t MeanVar, _ int, p MeanVar) MeanVar { t.Merge(p); return t }, nil)
	fmt.Printf("E[X^2] ~ %.2f\n", mv.Mean)
	// Output: E[X^2] ~ 1.00
}

// TestRunCancelMidRoundPartialConsistency cancels the context from
// inside a lane kernel and asserts the three-way contract of an
// interrupted run: the typed ErrCanceled taxonomy, a sample count that
// is a whole number of lanes, and a partial total that is bit-identical
// to the serial lane-order merge over exactly those lanes.
func TestRunCancelMidRoundPartialConsistency(t *testing.T) {
	const batch = 1024
	const n = 16 * batch
	stop := func(MeanVar, int) bool { return false }
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var fired int32
		kernel := func(w, lane, count int, rng *rand.Rand) (MeanVar, error) {
			if lane == 5 && atomic.CompareAndSwapInt32(&fired, 0, 1) {
				cancel()
			}
			return sumKernel(w, lane, count, rng)
		}
		got, done, err := Run(ctx, n, 7,
			Options{BatchSize: batch, CheckEvery: 4, Workers: workers},
			MeanVar{}, kernel, mergeMV, stop)
		cancel()
		if !errors.Is(err, resilient.ErrCanceled) {
			t.Fatalf("workers=%d: err = %v, want ErrCanceled", workers, err)
		}
		if errors.Is(err, resilient.ErrDeadline) {
			t.Errorf("workers=%d: cancel classified as deadline", workers)
		}
		if done%batch != 0 || done >= n {
			t.Fatalf("workers=%d: done = %d, want a partial whole number of lanes", workers, done)
		}
		if workers == 1 {
			// Serial claims are in lane order: lanes 0..5 complete (the
			// canceling lane included), the rest of the round is skipped.
			if done != 6*batch {
				t.Errorf("workers=1: done = %d lanes, want 6", done/batch)
			}
		}
		want, wantDone := serialReference(done, 7, Options{BatchSize: batch}, MeanVar{}, sumKernel, mergeMV, nil)
		if done != wantDone || got != want {
			t.Errorf("workers=%d: partial (done=%d, %+v) != serial prefix (done=%d, %+v)",
				workers, done, got, wantDone, want)
		}
	}

	// An already-expired deadline stops the run before any lane.
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, done, err := Run(expired, n, 7, Options{BatchSize: batch}, MeanVar{}, sumKernel, mergeMV, nil)
	if !errors.Is(err, resilient.ErrDeadline) {
		t.Fatalf("expired deadline: err = %v, want ErrDeadline", err)
	}
	if done != 0 {
		t.Errorf("expired deadline processed %d samples", done)
	}
}

// TestRunQuarantineAccounting pins the panic-isolation contract: with
// OnQuarantine set a panicking lane is excluded from the merge and
// reported, done + quarantined samples == n, and the run succeeds;
// without it the recovered panic surfaces as an ordinary error.
func TestRunQuarantineAccounting(t *testing.T) {
	const batch = 512
	const n = 10 * batch
	kernel := func(_, lane, count int, rng *rand.Rand) (int, error) {
		if lane == 3 {
			panic("lane 3 corrupted")
		}
		return count, nil
	}
	merge := func(total, lane, part int) int { return total + part }

	var mu sync.Mutex
	var qLanes []int
	qSamples := 0
	opts := Options{BatchSize: batch, Workers: 4, OnQuarantine: func(lane, samples int, err error) {
		mu.Lock()
		defer mu.Unlock()
		qLanes = append(qLanes, lane)
		qSamples += samples
		var pe *resilient.PanicError
		if !errors.As(err, &pe) {
			t.Errorf("OnQuarantine err = %v, want *resilient.PanicError", err)
		}
	}}
	total, done, err := Run(context.Background(), n, 1, opts, 0, kernel, merge, nil)
	if err != nil {
		t.Fatalf("quarantined run failed: %v", err)
	}
	if len(qLanes) != 1 || qLanes[0] != 3 {
		t.Fatalf("quarantined lanes = %v, want [3]", qLanes)
	}
	if total != n-batch || done != n-batch {
		t.Errorf("total=%d done=%d, want %d (lane 3 excluded)", total, done, n-batch)
	}
	if done+qSamples != n {
		t.Errorf("done %d + quarantined %d != n %d", done, qSamples, n)
	}

	// Nil OnQuarantine: the panic degrades to a run error, never a crash.
	_, _, err = Run(context.Background(), n, 1, Options{BatchSize: batch}, 0, kernel, merge, nil)
	var pe *resilient.PanicError
	if !errors.As(err, &pe) || pe.Value != "lane 3 corrupted" {
		t.Fatalf("err = %v, want wrapped PanicError", err)
	}
}

// TestRunCheckpointResumeBitIdentical kills a checkpointed run mid-way
// with an injected lane failure, resumes it, and asserts the final
// result is bit-identical to an uninterrupted run — without re-running
// the lanes already covered by the snapshot.
func TestRunCheckpointResumeBitIdentical(t *testing.T) {
	const batch = 1024
	const n = 20 * batch
	opts := Options{BatchSize: batch, CheckEvery: 2, Workers: 4}
	stop := func(MeanVar, int) bool { return false }
	want, wantDone, err := Run(context.Background(), n, 13, opts, MeanVar{}, sumKernel, mergeMV, stop)
	if err != nil {
		t.Fatal(err)
	}

	o := opts
	o.Checkpoint = &resilient.Checkpointer{Dir: t.TempDir(), Every: 1, Resume: true}
	boom := errors.New("injected crash")
	fp := resilient.NewFailpoints()
	fp.Set("mcengine.lane", resilient.Action{Err: boom, After: 9})
	resilient.Install(fp)
	_, _, err = Run(context.Background(), n, 13, o, MeanVar{}, sumKernel, mergeMV, stop)
	resilient.Install(nil)
	if !errors.Is(err, boom) {
		t.Fatalf("injected crash not surfaced: %v", err)
	}

	var lanesRun int64
	counting := func(w, lane, count int, rng *rand.Rand) (MeanVar, error) {
		atomic.AddInt64(&lanesRun, 1)
		return sumKernel(w, lane, count, rng)
	}
	got, done, err := Run(context.Background(), n, 13, o, MeanVar{}, counting, mergeMV, stop)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if got != want || done != wantDone {
		t.Errorf("resumed (done=%d, %+v) != uninterrupted (done=%d, %+v)", done, got, wantDone, want)
	}
	if int(lanesRun) >= Lanes(n, batch) {
		t.Errorf("resume re-ran all %d lanes", lanesRun)
	}

	// A second resume finds the completion snapshot and short-circuits.
	atomic.StoreInt64(&lanesRun, 0)
	got, done, err = Run(context.Background(), n, 13, o, MeanVar{}, counting, mergeMV, stop)
	if err != nil || got != want || done != wantDone {
		t.Errorf("completed-snapshot resume = (%+v, %d, %v)", got, done, err)
	}
	if lanesRun != 0 {
		t.Errorf("completed-snapshot resume ran %d lanes", lanesRun)
	}

	// Resuming under different run parameters must fail loudly.
	if _, _, err := Run(context.Background(), n, 14, o, MeanVar{}, sumKernel, mergeMV, stop); err == nil {
		t.Error("checkpoint from a different seed accepted")
	}
}

// TestRunReseedsOneGeneratorPerWorker pins Run's generator reuse: at
// Workers 1–3, with more lanes than workers, every lane's normal,
// uniform, exponential and integer draws equal those of a fresh
// generator seeded with SubstreamSeed(seed, lane), while all the lanes
// of one worker draw from one *rand.Rand.
func TestRunReseedsOneGeneratorPerWorker(t *testing.T) {
	const (
		lanes = 12
		batch = 40
		seed  = 41
	)
	type laneDraws struct {
		lane, worker int
		gen          *rand.Rand
		v            []float64
	}
	draw := func(rng *rand.Rand, count int) []float64 {
		var v []float64
		for i := 0; i < count; i++ {
			v = append(v, rng.NormFloat64(), rng.Float64(), rng.ExpFloat64(),
				float64(rng.Intn(1000)), float64(rng.Int63()))
		}
		return v
	}
	for _, workers := range []int{1, 2, 3} {
		kernel := func(w, lane, count int, rng *rand.Rand) (laneDraws, error) {
			return laneDraws{lane: lane, worker: w, gen: rng, v: draw(rng, count)}, nil
		}
		merge := func(all []laneDraws, _ int, d laneDraws) []laneDraws { return append(all, d) }
		all, _, err := Run(context.Background(), lanes*batch, seed,
			Options{Workers: workers, BatchSize: batch}, nil, kernel, merge, nil)
		if err != nil {
			t.Fatal(err)
		}
		gens := map[int]*rand.Rand{}
		for _, d := range all {
			want := draw(rand.New(rand.NewSource(SubstreamSeed(seed, d.lane))), batch)
			for i := range want {
				if math.Float64bits(d.v[i]) != math.Float64bits(want[i]) {
					t.Fatalf("workers %d, lane %d: draw %d = %v, a fresh generator gives %v", workers, d.lane, i, d.v[i], want[i])
				}
			}
			if d.worker < 0 || d.worker >= workers {
				t.Fatalf("workers %d: lane %d ran on worker %d", workers, d.lane, d.worker)
			}
			if g, ok := gens[d.worker]; ok && g != d.gen {
				t.Fatalf("workers %d: worker %d drew lane %d from a second generator", workers, d.worker, d.lane)
			}
			gens[d.worker] = d.gen
		}
	}
}
