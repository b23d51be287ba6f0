package mcengine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mstx/internal/resilient"
)

// laneValue is a deterministic per-lane partial whose float merge is
// order-sensitive, so any deviation from lane-order folding shows.
func laneValue(lane, count int) MeanVar {
	var mv MeanVar
	for i := 0; i < count; i++ {
		mv.Observe(math.Sin(float64(lane*131+i)) * 1e3)
	}
	return mv
}

func valuePlan(n, batch, workers int) Plan[MeanVar, MeanVar] {
	return Plan[MeanVar, MeanVar]{
		N: n, BatchSize: batch, Workers: workers,
		Kernel: func(_, lane, count int) (MeanVar, error) { return laneValue(lane, count), nil },
		Merge:  mergeMV,
	}
}

// serialValue is the plain-loop oracle for valuePlan over lanes [0, upto).
func serialValue(n, batch, upto int) (MeanVar, int) {
	var mv MeanVar
	done := 0
	for l := 0; l < upto; l++ {
		c := batch
		if rest := n - l*batch; rest < c {
			c = rest
		}
		mv.Merge(laneValue(l, c))
		done += c
	}
	return mv, done
}

func TestExecuteBitIdenticalAcrossWorkers(t *testing.T) {
	const n, batch = 1000, 7 // 143 lanes, the last one short
	want, wantDone := serialValue(n, batch, (n+batch-1)/batch)
	for _, workers := range []int{1, 2, 3, 8} {
		got, done, err := Execute(context.Background(), valuePlan(n, batch, workers), MeanVar{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want || done != wantDone {
			t.Errorf("workers=%d: (%d, %+v) != serial (%d, %+v)", workers, done, got, wantDone, want)
		}
	}
}

func TestExecuteWorkerIndexExclusive(t *testing.T) {
	// Each worker index belongs to one goroutine: per-worker scratch
	// indexed by it is never shared (the race detector checks this).
	const workers = 4
	scratch := make([]int, workers)
	p := Plan[int, int]{
		N: 200, Workers: workers,
		Kernel: func(w, lane, _ int) (int, error) {
			scratch[w]++
			return lane, nil
		},
		Merge: func(total, _, part int) int { return total + part },
	}
	total, done, err := Execute(context.Background(), p, 0)
	if err != nil || total != 199*200/2 || done != 200 {
		t.Fatalf("total=%d done=%d err=%v", total, done, err)
	}
	sum := 0
	for _, c := range scratch {
		sum += c
	}
	if sum != 200 {
		t.Errorf("worker lane counts sum to %d, want 200", sum)
	}
}

// TestExecuteKillAtEveryLaneResumes kills a checkpointed run at every
// lane in turn and resumes it: each resumed result must equal the
// uninterrupted one, without re-running merged lanes.
func TestExecuteKillAtEveryLaneResumes(t *testing.T) {
	const n, batch = 60, 5 // 12 lanes
	lanes := n / batch
	want, wantDone := serialValue(n, batch, lanes)
	boom := errors.New("killed")
	for kill := 0; kill < lanes; kill++ {
		for _, workers := range []int{1, 3} {
			ck := &resilient.Checkpointer{Dir: t.TempDir(), Every: 1, Resume: true}
			p := valuePlan(n, batch, workers)
			p.Checkpoint, p.CheckpointName, p.Ident = ck, "x", "seed=1"
			dying := p
			dying.Kernel = func(w, lane, count int) (MeanVar, error) {
				if lane == kill {
					return MeanVar{}, boom
				}
				return p.Kernel(w, lane, count)
			}
			if _, _, err := Execute(context.Background(), dying, MeanVar{}); !errors.Is(err, boom) {
				t.Fatalf("kill=%d workers=%d: err = %v", kill, workers, err)
			}
			var reran int64
			resumed := p
			resumed.Kernel = func(w, lane, count int) (MeanVar, error) {
				if lane < kill {
					t.Errorf("kill=%d: resume re-ran merged lane %d", kill, lane)
				}
				atomic.AddInt64(&reran, 1)
				return p.Kernel(w, lane, count)
			}
			got, done, err := Execute(context.Background(), resumed, MeanVar{})
			if err != nil {
				t.Fatalf("kill=%d workers=%d: resume: %v", kill, workers, err)
			}
			if got != want || done != wantDone {
				t.Fatalf("kill=%d workers=%d: resumed (%d, %+v) != uninterrupted (%d, %+v)",
					kill, workers, done, got, wantDone, want)
			}
			if int(reran) > lanes-kill {
				t.Errorf("kill=%d: resume ran %d lanes, want at most %d", kill, reran, lanes-kill)
			}
		}
	}

	// A snapshot from a different identity is refused.
	ck := &resilient.Checkpointer{Dir: t.TempDir(), Resume: true}
	p := valuePlan(n, batch, 2)
	p.Checkpoint, p.CheckpointName, p.Ident = ck, "x", "seed=1"
	if _, _, err := Execute(context.Background(), p, MeanVar{}); err != nil {
		t.Fatal(err)
	}
	p.Ident = "seed=2"
	if _, _, err := Execute(context.Background(), p, MeanVar{}); err == nil {
		t.Fatal("snapshot of a different run accepted")
	}
}

// TestExecuteFirstErrorByLaneOrder: several lanes fail; the returned
// error must deterministically be the lowest-numbered one regardless
// of completion order, and the pool never exceeds Workers goroutines.
func TestExecuteFirstErrorByLaneOrder(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		var live, peak int32
		p := Plan[int, int]{
			N: 16, Workers: 4,
			Kernel: func(_, lane, _ int) (int, error) {
				n := atomic.AddInt32(&live, 1)
				for {
					p := atomic.LoadInt32(&peak)
					if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
						break
					}
				}
				defer atomic.AddInt32(&live, -1)
				switch lane {
				case 3:
					// Delay the earliest failure so a later one tends to
					// land first.
					time.Sleep(2 * time.Millisecond)
					return 0, fmt.Errorf("lane 3 failed")
				case 11:
					return 0, fmt.Errorf("lane 11 failed")
				}
				return 1, nil
			},
			Merge: func(total, _, part int) int { return total + part },
		}
		total, done, err := Execute(context.Background(), p, 0)
		if err == nil || err.Error() != "lane 3 failed" {
			t.Fatalf("trial %d: got %v, want the lane-3 error", trial, err)
		}
		if total != 3 || done != 3 {
			t.Fatalf("trial %d: prefix total=%d done=%d, want lanes 0..2", trial, total, done)
		}
		if pk := atomic.LoadInt32(&peak); pk > 4 {
			t.Fatalf("trial %d: %d lanes live at once; pool must be bounded at 4", trial, pk)
		}
	}
	// Zero items is an empty run; more workers than lanes neither
	// deadlocks nor skips work.
	never := Plan[int, int]{
		Kernel: func(_, _, _ int) (int, error) { return 0, errors.New("never") },
		Merge:  func(total, _, part int) int { return total + part },
	}
	if _, _, err := Execute(context.Background(), never, 0); err != nil {
		t.Errorf("zero items returned %v", err)
	}
	var ran int32
	few := Plan[int, int]{
		N: 3, Workers: 64,
		Kernel: func(_, _, _ int) (int, error) { atomic.AddInt32(&ran, 1); return 1, nil },
		Merge:  func(total, _, part int) int { return total + part },
	}
	if total, _, err := Execute(context.Background(), few, 0); err != nil || total != 3 || ran != 3 {
		t.Errorf("3 lanes on 64 workers: total=%d ran=%d err=%v", total, ran, err)
	}
}

func TestExecuteQuarantineInLaneOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var order []int
		p := Plan[int, int]{
			N: 40, BatchSize: 2, Workers: workers,
			Kernel: func(_, lane, count int) (int, error) {
				if lane%4 == 1 {
					if lane == 1 {
						time.Sleep(time.Millisecond) // finish the first panic last
					}
					panic(fmt.Sprintf("lane %d", lane))
				}
				return count, nil
			},
			Merge: func(total, _, part int) int { return total + part },
			Quarantine: func(total, lane, _ int, err error) int {
				var pe *resilient.PanicError
				if !errors.As(err, &pe) || pe.Value != fmt.Sprintf("lane %d", lane) {
					t.Errorf("lane %d quarantined with %v", lane, err)
				}
				order = append(order, lane)
				return total
			},
		}
		total, done, err := Execute(context.Background(), p, 0)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want := []int{1, 5, 9, 13, 17}; fmt.Sprint(order) != fmt.Sprint(want) {
			t.Errorf("workers=%d: quarantine order %v, want %v", workers, order, want)
		}
		if total != 30 || done != 30 {
			t.Errorf("workers=%d: total=%d done=%d, want 30 (5 lanes of 2 quarantined)", workers, total, done)
		}
	}
}

func TestExecuteCancelReturnsMergedPrefix(t *testing.T) {
	const n, batch = 400, 4
	for _, workers := range []int{1, 2, 3, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		p := valuePlan(n, batch, workers)
		kernel := p.Kernel
		p.Kernel = func(w, lane, count int) (MeanVar, error) {
			if lane == 20 {
				cancel()
			}
			return kernel(w, lane, count)
		}
		ck := &resilient.Checkpointer{Dir: t.TempDir(), Resume: true}
		p.Checkpoint, p.CheckpointName = ck, "c"
		got, done, err := Execute(ctx, p, MeanVar{})
		cancel()
		if !errors.Is(err, resilient.ErrCanceled) {
			t.Fatalf("workers=%d: err = %v, want ErrCanceled", workers, err)
		}
		if done%batch != 0 || done >= n || done < 21*batch {
			t.Fatalf("workers=%d: done = %d, want a partial prefix covering lane 20", workers, done)
		}
		want, wantDone := serialValue(n, batch, done/batch)
		if got != want || done != wantDone {
			t.Errorf("workers=%d: partial (%d, %+v) != serial prefix (%d, %+v)", workers, done, got, wantDone, want)
		}
		// The interrupted prefix was saved: a resume completes the run.
		full, fullDone := serialValue(n, batch, n/batch)
		p.Kernel = kernel
		got, done, err = Execute(context.Background(), p, MeanVar{})
		if err != nil || got != full || done != fullDone {
			t.Errorf("workers=%d: resume after cancel = (%d, %+v, %v)", workers, done, got, err)
		}
	}
}

func TestExecuteEarlyErrorSettlesGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	boom := errors.New("first lane rejected")
	for trial := 0; trial < 20; trial++ {
		p := Plan[int, int]{
			N: 1000, Workers: 8,
			Kernel: func(_, lane, _ int) (int, error) {
				if lane == 0 {
					return 0, boom
				}
				time.Sleep(50 * time.Microsecond)
				return 1, nil
			},
			Merge: func(total, _, part int) int { return total + part },
		}
		if _, done, err := Execute(context.Background(), p, 0); !errors.Is(err, boom) || done != 0 {
			t.Fatalf("trial %d: done=%d err=%v", trial, done, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d live, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
