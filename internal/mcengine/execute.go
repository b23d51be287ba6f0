package mcengine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"mstx/internal/obs"
	"mstx/internal/resilient"
)

// Plan describes one ordered batch map: N items cut into lanes of
// BatchSize (the last lane carries the remainder), each lane computed
// by Kernel on a pool of Workers goroutines and folded into a running
// total by Merge strictly in ascending lane order. Every engine runs
// on it: Run adds RNG substreams on top, the fault and campaign
// engines map one 63-fault simulator batch per lane, and the SOC
// scheduler maps one TAM width per lane.
type Plan[T, P any] struct {
	// Span names the one obs span the run opens ("" opens none). It
	// also names the panic site of a recovered lane.
	Span string
	// N is the item count; zero items is an empty run.
	N int
	// BatchSize is the number of items per lane. Defaults to 1.
	BatchSize int
	// Workers bounds the pool, clamped to the lanes left to run.
	// Defaults to GOMAXPROCS.
	Workers int
	// CheckEvery is the early-stop cadence: Stop runs each time the
	// merged prefix reaches a multiple of CheckEvery lanes (not after
	// the last lane). Zero, or a nil Stop, never stops early.
	CheckEvery int
	// Checkpoint, when enabled, saves the merged prefix every
	// Checkpoint.Every merged lanes, on cancellation, on an early stop
	// and at completion; with Resume set the next run continues from
	// the saved prefix and ends bit-identical to an uninterrupted one.
	Checkpoint *resilient.Checkpointer
	// CheckpointName names the snapshot inside Checkpoint.Dir.
	CheckpointName string
	// Ident is the caller's run identity (seed, stimulus hash, ...). A
	// snapshot resumes only when its Ident, N, BatchSize and
	// CheckEvery all match; otherwise the run fails loudly with a
	// *resilient.CheckpointError.
	Ident string
	// Kernel computes one lane's partial result from count items.
	// worker (0 ≤ worker < Workers) identifies the calling goroutine,
	// so kernels can index per-worker scratch without locking.
	Kernel func(worker, lane, count int) (P, error)
	// Merge folds one lane's partial into the total, in lane order.
	// Merge, Quarantine and Stop run one at a time under the merge
	// lock, so they need no locking of their own but must not block.
	Merge Merge[T, P]
	// Quarantine, when non-nil, turns a panicking lane into a
	// quarantined one: it is called in lane order, at merge time, with
	// the lane, its item count and the *resilient.PanicError, and
	// returns the total to continue from. When nil, a recovered panic
	// fails the run like any kernel error.
	Quarantine func(total T, lane, count int, err error) T
	// Stop is the early-stop predicate (see CheckEvery).
	Stop Stop[T]
}

// execVersion guards the execState layout; bump it when the state
// shape changes so stale snapshots are rejected on load.
const execVersion = 2

// execState is the snapshot of a merged prefix: the total over lanes
// [0, Next), the items those lanes merged, and the run shape the
// snapshot is only valid for.
type execState[T any] struct {
	N, BatchSize, CheckEvery int
	Ident                    string
	Next                     int
	Done                     int
	Stopped                  bool
	Total                    T
}

// laneResult is one lane's kernel outcome waiting for its merge.
type laneResult[P any] struct {
	part  P
	err   error
	ready bool
}

// executor is the state of one Execute call shared by its workers.
// mu guards everything below it; moved is signalled whenever the
// merged prefix advances or the run halts.
type executor[T, P any] struct {
	p            Plan[T, P]
	batch, lanes int
	ahead        int // claims stay below next+ahead

	mu      sync.Mutex
	moved   *sync.Cond
	claimed int             // last lane claimed
	halt    bool            // no more claims: failure, early stop or pool panic
	pending []laneResult[P] // finished lanes not yet merged, lane l at l%ahead
	total   T
	next    int // lanes [0, next) are merged
	done    int // items merged (quarantined lanes excluded)
	stopped bool
	runErr  error // first failure in lane order, or a snapshot error
	poolErr error // a panic outside the per-lane guard
}

// Execute runs the plan over total (the caller's initial accumulator)
// and returns the merged total with the number of items merged —
// fewer than N after an early stop, an interruption or a failure, and
// never counting quarantined lanes.
//
// Workers claim lanes in order, at most 2×Workers lanes past the
// merged prefix. A finished lane is merged as soon as every lane
// before it is merged, so there are no round barriers, and the merged
// value depends only on the lane decomposition, never on the worker
// count or timing. On cancellation or deadline no further lanes are
// claimed, the merged prefix is saved and returned with an error
// satisfying resilient.Interrupted. On a kernel error (or an
// unquarantined panic) no further lanes are claimed and the error of
// the lowest failing lane is returned with the prefix merged before
// it.
func Execute[T, P any](ctx context.Context, p Plan[T, P], total T) (T, int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p.Kernel == nil || p.Merge == nil {
		return total, 0, fmt.Errorf("mcengine: nil kernel or merge")
	}
	if p.N <= 0 {
		return total, 0, nil
	}
	x := &executor[T, P]{p: p, batch: max(p.BatchSize, 1), total: total}
	x.lanes = (p.N + x.batch - 1) / x.batch
	if p.Checkpoint.Enabled() {
		var st execState[T]
		loaded, err := p.Checkpoint.Load(p.CheckpointName, execVersion, &st)
		if err != nil {
			return total, 0, err
		}
		if loaded {
			if st.N != p.N || st.BatchSize != x.batch || st.CheckEvery != p.CheckEvery || st.Ident != p.Ident {
				return total, 0, &resilient.CheckpointError{Name: p.CheckpointName, Err: fmt.Errorf(
					"from a different campaign (n=%d batch=%d check=%d %s, want n=%d batch=%d check=%d %s)",
					st.N, st.BatchSize, st.CheckEvery, st.Ident, p.N, x.batch, p.CheckEvery, p.Ident)}
			}
			// Done counts the unquarantined items of lanes [0, Next).
			if st.Next < 0 || st.Done < 0 || st.Done > min(min(st.Next, x.lanes)*x.batch, p.N) {
				return total, 0, &resilient.CheckpointError{Name: p.CheckpointName, Err: fmt.Errorf(
					"merged prefix out of range (next lane %d, %d of %d items done)", st.Next, st.Done, p.N)}
			}
			if st.Stopped || st.Next >= x.lanes {
				return st.Total, st.Done, nil
			}
			x.total, x.done, x.next = st.Total, st.Done, st.Next
		}
	}

	if p.Span != "" {
		var sp *obs.SpanHandle
		ctx, sp = obs.Span(ctx, p.Span)
		defer sp.End()
	}

	workers := min(WorkerCount(p.Workers), x.lanes-x.next)
	x.claimed = x.next - 1
	x.ahead = aheadPerWorker * workers
	x.pending = make([]laneResult[P], x.ahead)
	x.moved = sync.NewCond(&x.mu)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		resilient.Go(&wg, "mcengine.worker", func() error {
			// A claimed lane always runs, so every lane below a failing
			// one finishes and the error reported is the lowest.
			for {
				l, ok := x.claim(ctx)
				if !ok {
					return nil
				}
				var part P
				err := resilient.Call(p.Span, func() error {
					var err error
					part, err = p.Kernel(w, l, x.count(l))
					return err
				})
				x.finish(l, part, err)
			}
		}, x.onPool)
	}
	wg.Wait()

	switch {
	case x.runErr != nil:
		return x.total, x.done, x.runErr
	case x.poolErr != nil:
		return x.total, x.done, fmt.Errorf("mcengine: worker pool: %w", x.poolErr)
	case x.stopped:
		return x.total, x.done, x.snapshot(true)
	case x.next < x.lanes:
		// Interrupted: keep the merged prefix so a resume continues
		// from here instead of lane zero.
		if err := x.snapshot(false); err != nil {
			return x.total, x.done, err
		}
		return x.total, x.done, resilient.CtxErr(ctx)
	}
	return x.total, x.done, x.snapshot(false)
}

// aheadPerWorker bounds how far claims run ahead of the merged prefix:
// at most aheadPerWorker×Workers lanes are claimed past the last
// merged one. That bounds the partials held for merging and the work a
// kill can lose beyond the last snapshot, while leaving each worker
// slack to pass a slow lane.
const aheadPerWorker = 2

// claim returns the next lane to run, waiting while it would be too
// far ahead of the merged prefix; false once the run is over for this
// worker (all lanes claimed, halted, or ctx done).
func (x *executor[T, P]) claim(ctx context.Context) (int, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for {
		if x.halt || ctx.Err() != nil || x.claimed+1 >= x.lanes {
			return 0, false
		}
		if x.claimed+1 < x.next+x.ahead {
			x.claimed++
			return x.claimed, true
		}
		// The lane at x.next is running on another worker, so its
		// finish (or the pool's failure) signals moved.
		x.moved.Wait()
	}
}

// count is lane l's item count; the last lane carries the remainder.
func (x *executor[T, P]) count(l int) int {
	if l == x.lanes-1 {
		return x.p.N - l*x.batch
	}
	return x.batch
}

// snapshot saves the merged prefix (a no-op without a checkpointer).
func (x *executor[T, P]) snapshot(stopped bool) error {
	return x.p.Checkpoint.Save(x.p.CheckpointName, execVersion, execState[T]{
		N: x.p.N, BatchSize: x.batch, CheckEvery: x.p.CheckEvery, Ident: x.p.Ident,
		Next: x.next, Done: x.done, Stopped: stopped, Total: x.total,
	})
}

// quarantined reports whether a lane error is a panic to quarantine.
func (x *executor[T, P]) quarantined(err error) bool {
	var pe *resilient.PanicError
	return x.p.Quarantine != nil && errors.As(err, &pe)
}

// finish records lane l's outcome and merges what it unblocks.
func (x *executor[T, P]) finish(l int, part P, err error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.pending[l%x.ahead] = laneResult[P]{part: part, err: err, ready: true}
	x.fold()
	if x.runErr != nil || x.stopped || (err != nil && !x.quarantined(err)) {
		x.halt = true
	}
	x.moved.Broadcast()
}

// fold merges the contiguous finished prefix, in lane order, running
// the stop predicate and the periodic snapshot at their cadences.
// Called with mu held.
func (x *executor[T, P]) fold() {
	p := &x.p
	for x.next < x.lanes && x.runErr == nil && !x.stopped && x.pending[x.next%x.ahead].ready {
		l := x.next
		r := x.pending[l%x.ahead]
		x.pending[l%x.ahead] = laneResult[P]{} // free the slot once merged
		switch {
		case r.err == nil:
			x.total = p.Merge(x.total, l, r.part)
			x.done += x.count(l)
		case x.quarantined(r.err):
			x.total = p.Quarantine(x.total, l, x.count(l), r.err)
		default:
			x.runErr = r.err
			return
		}
		x.next++
		switch {
		case x.next == x.lanes:
		case p.Stop != nil && p.CheckEvery > 0 && x.next%p.CheckEvery == 0 && p.Stop(x.total, x.done):
			x.stopped = true
		case p.Checkpoint.Enabled() && x.next%p.Checkpoint.Interval() == 0:
			// The snapshot must see exactly the merged prefix, so it is
			// written before any later lane can merge.
			x.runErr = x.snapshot(false)
		}
	}
}

// onPool records a panic that escaped the per-lane guard (a merge or
// stop callback) and stops the pool.
func (x *executor[T, P]) onPool(err error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.poolErr == nil {
		x.poolErr = err
	}
	x.halt = true
	x.moved.Broadcast()
}
