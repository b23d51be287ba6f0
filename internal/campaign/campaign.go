// Package campaign is the stuck-at fault-campaign engine. It runs
// every campaign of the repository — exact output compare
// (fault.ExactDetector) and spectral signature detection through the
// analog path (spectest.Detector) alike — on one bounded worker pool
// (mcengine.Execute, one 63-fault batch per lane). Each worker grades
// a batch lane by lane, building a fault's gate-level record and
// detecting it with its own detector, bound through fault.BindWorker;
// for the spectral detector that is a reusable fast-FFT scratch, so
// once warm the record → FFT → verdict path allocates nothing (pinned
// by AllocsPerRun tests in digital, dsp and spectest and by
// BENCH_campaign.json). Batches merge in order, so
// the Report is identical for any worker count, any kill/resume split,
// and to fault.SerialSimulate with the same detector.
//
// Three reuses exploit that every batch drives the same stimulus.
// Record generation is parallel-pattern single-fault propagation: the
// FIR netlist is combinational (its delay line lives outside it), so
// one fault-free pass, 64 record steps per simulator word, captures
// every net's value over the whole record (digital.Baseline), and each
// fault then re-evaluates only the gates its effect reaches, on its
// worker's digital.FaultReplay. A zero-diff screen gives a faulty
// record identical to the good one the good record's own verdict,
// Det.Detect(good, good), computed once. And verdicts are memoized:
// structurally inequivalent faults often produce byte-identical
// records, so each distinct record is detected at most once — except
// under fault.ExactDetector, whose compare costs less than hashing and
// keeping the record, so exact campaigns skip the memo. The
// screen and the memo are exact for any pure detector (one whose
// verdict depends only on the two records): the good record is the
// same for every lane, so a verdict is a function of the faulty record
// alone.
package campaign

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mstx/internal/digital"
	"mstx/internal/fault"
	"mstx/internal/mcengine"
	"mstx/internal/netlist"
	"mstx/internal/obs"
	"mstx/internal/resilient"
)

// Failpoint sites for the deterministic fault-injection harness: one
// per batch stage (record generation, detection), each fired once per
// batch before its lanes are built and graded. Disabled (nil
// registry) they cost one atomic load.
var (
	fpSimBatch = resilient.Site("campaign.sim_batch")
	fpDetBatch = resilient.Site("campaign.detect_batch")
)

// lanesPerBatch is the simulator's fault-lane capacity: 64 bit-lanes
// with lane 0 reserved for the good machine.
const lanesPerBatch = 63

// Options configures the engine.
type Options struct {
	// SimWorkers is ignored.
	//
	// Deprecated: the campaign runs one pool of DetectWorkers, each
	// worker simulating and then detecting its batch.
	SimWorkers int
	// DetectWorkers bounds the campaign pool (one bound detector per
	// worker). Defaults to GOMAXPROCS.
	DetectWorkers int
	// DisableDifferential turns parallel-pattern record generation
	// off (every batch re-evaluates the full netlist per step). The
	// parallel-pattern path is on by default whenever the circuit
	// compiles and the baseline view fits the memory budget; it
	// changes no record bit.
	DisableDifferential bool
	// Quarantine recovers a panicking batch (either stage), marks its
	// faults Quarantined in the Report, and continues the campaign.
	// Without it the recovered panic aborts the run as an ordinary
	// error — the process never crashes either way.
	Quarantine bool
	// Checkpoint, when enabled, snapshots the merged batch prefix every
	// Checkpoint.Every merged batches so a killed campaign resumes
	// instead of restarting. The resumed Report is bit-identical; the
	// Memoized/Spectra split in Stats may shift (the memo table is
	// rebuilt on resume).
	Checkpoint *resilient.Checkpointer
	// CheckpointName names this campaign's snapshot inside
	// Checkpoint.Dir. Default "campaign".
	CheckpointName string
}

// maxBaselineBytes caps the baseline's time-packed view (one bit per
// net per record step); campaigns exceeding it fall back to full
// per-batch simulation rather than ballooning memory.
const maxBaselineBytes = 256 << 20

// Stats reports what the engine actually did.
type Stats struct {
	// Faults is the universe size.
	Faults int
	// Batches is the number of 63-lane simulator passes.
	Batches int
	// Screened counts lanes resolved by the zero-diff screen.
	Screened int
	// Memoized counts lanes resolved by record-verdict memoization (a
	// byte-identical record was already detected); always 0 under
	// fault.ExactDetector, which runs without the memo.
	Memoized int
	// Spectra counts detector evaluations actually performed (spectra,
	// for the spectral detector), including the one good-record
	// evaluation backing the screen.
	Spectra int
	// Differential reports whether record generation propagated each
	// fault over a shared baseline (false: full per-batch runs).
	Differential bool
	// Quarantined counts faults whose batch panicked and was isolated
	// under Options.Quarantine (their Results carry no verdict).
	Quarantined int
}

// runTotal is the merged prefix of a campaign: the results of the
// merged batches, in universe order, and the engine counters they
// contributed. It is what a checkpoint saves. Spectra excludes the
// good-record verdict (recomputed on every run, including resumes).
type runTotal struct {
	Results                                  []fault.Result
	Screened, Memoized, Spectra, Quarantined int
}

// batchResult is one detected batch, waiting for its in-order merge.
type batchResult struct {
	results                     []fault.Result
	screened, memoized, spectra int
}

// Engine runs stuck-at campaigns for one universe/detector pair. It is
// cheap to construct; all heavy state is per-Run.
type Engine struct {
	U    *fault.Universe
	Det  fault.Detector
	Opts Options
}

// New builds an engine. The detector must already be calibrated (a
// spectral one against its reference); construction validates nothing
// about the stimulus, which is supplied per Run.
func New(u *fault.Universe, det fault.Detector, opts Options) (*Engine, error) {
	if u == nil {
		return nil, fmt.Errorf("campaign: nil universe")
	}
	if det == nil {
		return nil, fmt.Errorf("campaign: nil detector")
	}
	if opts.DetectWorkers <= 0 {
		opts.DetectWorkers = runtime.GOMAXPROCS(0)
	}
	return &Engine{U: u, Det: det, Opts: opts}, nil
}

// Run executes the campaign over one period of the (coherent)
// stimulus xs and returns the per-fault Report — identical to
// fault.SerialSimulate(u, xs, det) — together with engine statistics.
// Detector errors abort the run and surface as campaign errors; the
// first error in batch order is returned.
//
// Cancellation and deadlines on ctx are honored at batch granularity:
// an interrupted run returns the partial Report (the merged prefix of
// batches carries verdicts; the rest keep the fault identity with
// FirstDiff -1) and an error satisfying errors.Is against
// resilient.ErrCanceled or resilient.ErrDeadline.
func (e *Engine) Run(ctx context.Context, xs []int64) (*fault.Report, *Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(xs) == 0 {
		return nil, nil, fmt.Errorf("campaign: empty input record")
	}
	nf := len(e.U.Faults)
	nBatches := (nf + lanesPerBatch - 1) / lanesPerBatch
	stats := &Stats{Faults: nf, Batches: nBatches}

	// Observability: resolve every handle once per run, preferring a
	// registry carried by ctx (a job server records each job into its
	// own span ring) over the process default. With neither installed
	// all handles are nil, every use below is a nil-receiver no-op, and
	// none of the timing branches take a clock reading — the disabled
	// path is benchmarked to stay within noise of the uninstrumented
	// engine.
	reg := obs.For(ctx)
	var (
		runCtx      = ctx
		runSp       *obs.SpanHandle
		verdictHist *obs.Histogram
		genCounter  *obs.Counter
		busyNanos   atomic.Int64
	)
	if reg != nil {
		runCtx, runSp = reg.Span(ctx, "campaign.run")
		defer runSp.End()
		verdictHist = reg.Histogram("campaign_verdict_seconds", 0, 0.1, 64)
		genCounter = reg.Counter("campaign_records_generated_total")
	}

	// The screen's shared verdict: a zero-diff lane's record is the
	// good record, so its verdict is Detect(good, good). The good
	// record is the same for every batch (lane 0 of each pass), so
	// compute it — and its verdict — once up front. This also surfaces
	// stimulus/detector length mismatches before any batch spins up.
	// When the parallel-pattern path is viable the same pass captures
	// the time-packed baseline view every fault is propagated over.
	goodSim := digital.NewFIRSim(e.U.FIR)
	var (
		good   []int64
		base   *digital.Baseline
		err    error
		baseSp *obs.SpanHandle
	)
	if reg != nil {
		_, baseSp = reg.Span(runCtx, "campaign.baseline")
	}
	useDiff := !e.Opts.DisableDifferential && goodSim.Compiled() &&
		digital.BaselineBytes(e.U.FIR, len(xs)) <= maxBaselineBytes
	if useDiff {
		base, err = goodSim.CaptureBaseline(xs)
		if err != nil {
			return nil, nil, err
		}
		good = base.Good
	} else {
		good, err = goodSim.RunPeriodic(xs)
		if err != nil {
			return nil, nil, err
		}
	}
	stats.Differential = useDiff
	goodDetected, err := e.Det.Detect(good, good)
	baseSp.End()
	if err != nil {
		return nil, nil, err
	}
	stats.Spectra++

	// One pool: each worker grades a batch lane by lane with its own
	// bound detector (created on the worker's first batch), building
	// each lane's record and detecting it before the next. Lanes whose
	// record matches the good record take the screened verdict without
	// detecting (on the parallel-pattern path they build no record at
	// all), and byte-identical records share one memoized verdict. An
	// exact compare is cheaper than hashing and keeping its record, so
	// exact campaigns run without the memo.
	workers := min(max(e.Opts.DetectWorkers, 1), nBatches)
	dets := make([]fault.Detector, workers)
	replays := make([]*digital.FaultReplay, workers)
	var memo *memoTable
	if _, exact := e.Det.(fault.ExactDetector); !exact {
		memo = newMemoTable()
	}
	// verdict resolves one lane whose diff stats are set; rec may be
	// the worker's reused record buffer.
	verdict := func(det fault.Detector, res *fault.Result, rec []int64, out *batchResult) error {
		if res.MaxAbsDiff == 0 {
			res.Detected = goodDetected
			out.screened++
			return nil
		}
		var h uint64
		if memo != nil {
			h = HashRecord(rec)
			if d, ok := memo.lookup(h, rec); ok {
				res.Detected = d
				out.memoized++
				return nil
			}
		}
		var t0 time.Time
		if verdictHist != nil {
			t0 = time.Now()
		}
		d, err := det.Detect(good, rec)
		if verdictHist != nil {
			verdictHist.Observe(time.Since(t0).Seconds())
		}
		if err != nil {
			return err
		}
		if memo != nil {
			memo.insert(h, rec, d)
		}
		res.Detected = d
		out.spectra++
		return nil
	}
	// grade builds and detects the lanes of faults (universe index lo
	// on): each record comes from the replay r (parallel-pattern) or,
	// with r nil, from lanes (one full-netlist pass).
	grade := func(det fault.Detector, r *digital.FaultReplay, lanes [][]int64, lo int, faults []netlist.Fault) (batchResult, error) {
		out := batchResult{results: make([]fault.Result, len(faults))}
		for i, f := range faults {
			res := &out.results[i]
			*res = e.blank(lo + i)
			var rec []int64
			if r != nil {
				var err error
				if rec, res.FirstDiff, res.MaxAbsDiff, err = r.Record(base, f); err != nil {
					return batchResult{}, err
				}
			} else {
				rec = lanes[i]
				res.FirstDiff, res.MaxAbsDiff = fault.DiffStats(good, rec)
			}
			var t time.Time
			if reg != nil {
				t = time.Now()
			}
			err := verdict(det, res, rec, &out)
			if reg != nil {
				busyNanos.Add(int64(time.Since(t)))
			}
			if err != nil {
				return batchResult{}, err
			}
		}
		genCounter.Add(int64(len(faults)))
		return out, nil
	}
	plan := mcengine.Plan[runTotal, batchResult]{
		Span: "campaign.pipeline", N: nf, BatchSize: lanesPerBatch, Workers: workers,
		Checkpoint: e.Opts.Checkpoint, CheckpointName: e.Opts.CheckpointName,
		// The detector's type is part of the identity: an exact and a
		// spectral campaign over one stimulus must never resume each
		// other's verdicts.
		Ident: fmt.Sprintf("det=%T patterns=%d stim=%016x", e.Det, len(xs), HashRecord(xs)),
		Kernel: func(w, lane, count int) (batchResult, error) {
			lo := lane * lanesPerBatch
			faults := e.U.Faults[lo : lo+count]
			if err := resilient.Fire(fpSimBatch); err != nil {
				return batchResult{}, err
			}
			var (
				lanes [][]int64
				err   error
			)
			if useDiff {
				if replays[w] == nil {
					if replays[w], err = digital.NewFaultReplay(e.U.FIR); err != nil {
						return batchResult{}, err
					}
				}
			} else if _, lanes, err = fault.Records(e.U, xs, faults); err != nil {
				return batchResult{}, err
			}
			if dets[w] == nil {
				if dets[w], err = fault.BindWorker(e.Det); err != nil {
					return batchResult{}, err
				}
			}
			if err := resilient.Fire(fpDetBatch); err != nil {
				return batchResult{}, err
			}
			// A panic mid-batch may leave the replay's propagator
			// mid-walk (nets marked, gates scheduled), so the worker
			// keeps it only once the batch returns.
			r := replays[w]
			replays[w] = nil
			out, err := grade(dets[w], r, lanes, lo, faults)
			replays[w] = r
			return out, err
		},
		Merge: func(t runTotal, _ int, b batchResult) runTotal {
			t.Results = append(t.Results, b.results...)
			t.Screened += b.screened
			t.Memoized += b.memoized
			t.Spectra += b.spectra
			return t
		},
	}
	if plan.CheckpointName == "" {
		plan.CheckpointName = "campaign"
	}
	if e.Opts.Quarantine {
		// A quarantined batch keeps its faults' bare identity, marked.
		plan.Quarantine = func(t runTotal, lane, count int, _ error) runTotal {
			for i := lane * lanesPerBatch; i < lane*lanesPerBatch+count; i++ {
				res := e.blank(i)
				res.Quarantined = true
				t.Results = append(t.Results, res)
			}
			t.Quarantined += count
			return t
		}
	}
	var pipeStart time.Time
	if reg != nil {
		pipeStart = time.Now()
	}
	total, _, err := mcengine.Execute(runCtx, plan, runTotal{Results: make([]fault.Result, 0, nf)})
	if err != nil && !resilient.Interrupted(err) {
		return nil, nil, err
	}
	if e.Opts.Checkpoint.Enabled() {
		if bad := e.checkResumed(plan.CheckpointName, total.Results, err == nil); bad != nil {
			return nil, nil, bad
		}
	}
	// The batches not merged keep their faults' bare identity, so a
	// partial report still says which fault each entry covers.
	for i := len(total.Results); i < nf; i++ {
		total.Results = append(total.Results, e.blank(i))
	}
	stats.Screened = total.Screened
	stats.Memoized = total.Memoized
	stats.Spectra += total.Spectra
	stats.Quarantined = total.Quarantined
	rep := &fault.Report{Results: total.Results, Patterns: len(xs)}
	if err != nil {
		return rep, stats, err
	}
	if reg != nil {
		reg.Counter("campaign_runs_total").Inc()
		reg.Counter("campaign_faults_total").Add(int64(nf))
		reg.Counter("campaign_batches_total").Add(int64(nBatches))
		reg.Counter("campaign_screened_total").Add(int64(total.Screened))
		if total.Quarantined > 0 {
			reg.Counter("campaign_quarantined_total").Add(int64(total.Quarantined))
		}
		reg.Counter("campaign_memo_hits_total").Add(int64(total.Memoized))
		// A miss is a lane that paid its own detection — exactly the
		// evaluations computed in the pool.
		reg.Counter("campaign_memo_misses_total").Add(int64(total.Spectra))
		reg.Counter("campaign_spectra_total").Add(int64(stats.Spectra))
		if wall := time.Since(pipeStart).Seconds(); wall > 0 && workers > 0 {
			busy := float64(busyNanos.Load()) / 1e9
			reg.Gauge("campaign_fft_worker_utilization").Set(busy / (wall * float64(workers)))
		}
	}
	return rep, stats, nil
}

// blank is fault i's bare identity: no verdict, FirstDiff -1.
func (e *Engine) blank(i int) fault.Result {
	f := e.U.Faults[i]
	return fault.Result{Fault: f, Tap: e.U.FIR.TapOfNet(f.Net), FirstDiff: -1}
}

// checkResumed refuses a merged prefix that is not this universe's
// leading faults in order (or, when the run completed, all of them): a
// snapshot that matched the campaign identity but holds another fault
// list.
func (e *Engine) checkResumed(name string, results []fault.Result, complete bool) error {
	nf := len(e.U.Faults)
	ok := len(results) <= nf && (!complete || len(results) == nf)
	for i := 0; ok && i < len(results); i++ {
		ok = results[i].Fault == e.U.Faults[i]
	}
	if !ok {
		return &resilient.CheckpointError{Name: name,
			Err: fmt.Errorf("its %d results are not a prefix of this %d-fault universe", len(results), nf)}
	}
	return nil
}

// memoTable memoizes detection verdicts by record content. Hash
// collisions are resolved by full record comparison, so a hit is an
// exact byte-identical match and reusing its verdict cannot change any
// result (with the good record fixed, a pure detector's verdict is a
// function of the faulty record). Two workers
// racing on the same record may both compute it — the table then keeps
// one entry and the campaign merely loses one skip, never correctness.
type memoTable struct {
	mu      sync.Mutex
	buckets map[uint64][]memoEntry
	bytes   int
}

type memoEntry struct {
	rec      []int64
	detected bool
}

// maxMemoBytes caps the records the table keeps alive; beyond it,
// lookups continue but new records are no longer retained.
const maxMemoBytes = 256 << 20

func newMemoTable() *memoTable {
	return &memoTable{buckets: make(map[uint64][]memoEntry)}
}

// HashRecord is FNV-1a over the record words. It doubles as the
// engine-facing stimulus identity: checkpoint validation and the
// service layer's content-addressed result cache key off it. For the
// in-memory memo table collisions are fine (lookup compares records in
// full), so word granularity suffices.
func HashRecord(rec []int64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range rec {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

func recordsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (m *memoTable) lookup(h uint64, rec []int64) (detected, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.buckets[h] {
		if recordsEqual(e.rec, rec) {
			return e.detected, true
		}
	}
	return false, false
}

func (m *memoTable) insert(h uint64, rec []int64, detected bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.bytes+8*len(rec) > maxMemoBytes {
		return
	}
	for _, e := range m.buckets[h] {
		if recordsEqual(e.rec, rec) {
			return
		}
	}
	// rec may be a worker's reused buffer: keep a copy.
	m.buckets[h] = append(m.buckets[h], memoEntry{rec: append([]int64(nil), rec...), detected: detected})
	m.bytes += 8 * len(rec)
}
