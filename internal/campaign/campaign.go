// Package campaign is the pooled spectral fault-campaign engine: one
// bounded worker pool (mcengine.Execute, one 63-fault batch per lane)
// in which each worker generates a batch's gate-level records and then
// detects them with its own reusable FFT scratch (window table,
// complex work buffer, float conversion buffer) keyed off the shared
// dsp plan cache, so the per-fault hot path allocates nothing. Batch
// results merge into the report in batch order.
//
// The engine also applies a zero-diff screen: a faulty record that is
// identical to the good record has an identical spectrum, so its
// spectral verdict equals the good record's own — computed once — and
// the per-fault FFT is skipped entirely. On high-coverage stimuli a
// large fraction of the residual faults never toggle the output, so
// the screen removes a matching fraction of the transform work while
// leaving the campaign Report bit-identical to the serial reference
// path (fault.SerialSimulate with the same detector).
//
// The per-record steady state is a zero-allocation contract, pinned by
// testing.AllocsPerRun regression tests in dsp and spectest and by the
// BENCH_dsp.json / BENCH_campaign.json perf trajectories recorded by
// scripts/check.sh: once a worker's scratch is warm, the record →
// window → FFT → power spectrum → screen path allocates nothing. The
// same contract is available outside this engine — spectest.Detector
// satisfies fault.WorkerDetector, so fault.Simulate and
// fault.SerialSimulate bind one scratch per pool worker, and
// dsp.SpectrumScratch carries scratch-backed Welch, Analyze,
// NoiseFloor and CoherentAverage variants for streaming callers.
//
// Two further campaign-level reuses exploit that every batch drives
// the same stimulus. Record generation is differential: the fault-free
// machine's net values are captured once per step (digital.Baseline)
// and each batch re-evaluates only the fanout cone of its 63 faults —
// a small fraction of the circuit — instead of the whole netlist.
// And detection is memoized: structurally inequivalent faults often
// produce byte-identical output records, whose spectra and verdicts
// are necessarily identical too, so each distinct record pays for at
// most one transform. Both reuses are exact (no verdict can change)
// and both can be disabled in Options for A/B measurement.
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
	"mstx/internal/obs"
	"mstx/internal/resilient"
	"mstx/internal/spectest"
)

// Failpoint sites for the deterministic fault-injection harness: one
// per batch stage (record generation, detection), fired once per
// batch. Disabled (nil registry) they cost one atomic load.
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
	// DetectWorkers bounds the campaign pool (one FFT scratch per
	// worker). Defaults to GOMAXPROCS.
	DetectWorkers int
	// DisableScreen turns the zero-diff screen off (every lane pays
	// its FFT); the screen is on by default and changes no verdict.
	DisableScreen bool
	// DisableDifferential turns cone-differential record generation
	// off (every batch re-evaluates the full netlist per step). The
	// differential path is on by default whenever the circuit compiles
	// and the baseline snapshot fits the memory budget; it changes no
	// record bit.
	DisableDifferential bool
	// DisableMemo turns record-verdict memoization off (byte-identical
	// faulty records each pay their own transform); memoization is on
	// by default and changes no verdict.
	DisableMemo bool
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

// maxBaselineBytes caps the differential baseline snapshot (one bit
// per net per record step); campaigns exceeding it fall back to full
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
	// byte-identical record was already transformed).
	Memoized int
	// Spectra counts spectral evaluations actually performed,
	// including the one good-record evaluation backing the screen.
	Spectra int
	// Differential reports whether record generation replayed fault
	// cones against a shared baseline (false: full per-batch runs).
	Differential bool
	// Quarantined counts faults whose batch panicked and was isolated
	// under Options.Quarantine (their Results carry no verdict).
	Quarantined int
}

// runTotal is the merged prefix of a campaign: the report's results
// and the engine counters the merged batches contributed. It is what a
// checkpoint saves. Spectra excludes the good-record verdict
// (recomputed on every run, including resumes).
type runTotal struct {
	Results                                  []fault.Result
	Screened, Memoized, Spectra, Quarantined int
}

// batchResult is one detected batch, waiting for its in-order merge.
type batchResult struct {
	results                     []fault.Result
	screened, memoized, spectra int
}

// Engine runs spectral stuck-at campaigns for one universe/detector
// pair. It is cheap to construct; all heavy state is per-Run.
type Engine struct {
	U    *fault.Universe
	Det  *spectest.Detector
	Opts Options
}

// New builds an engine. The detector must already be calibrated;
// construction validates nothing about the stimulus, which is supplied
// per Run.
func New(u *fault.Universe, det *spectest.Detector, opts Options) (*Engine, error) {
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

// Run executes the spectral campaign over one period of the (coherent)
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

	// The screen's shared verdict: a zero-diff lane's spectrum is the
	// good record's spectrum, so its verdict is the good record's. The
	// good record is the same for every batch (lane 0 of each pass),
	// so compute it — and its verdict — once up front. This also
	// surfaces stimulus/detector length mismatches before any batch
	// spins up. When the differential path is viable the same pass
	// captures the per-step baseline snapshots every batch replays its
	// fault cones against.
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
	goodDetected, err := e.Det.DetectRecord(good, nil)
	baseSp.End()
	if err != nil {
		return nil, nil, err
	}
	stats.Spectra++

	// One pool: each worker simulates a batch, then detects it with its
	// own scratch (created on the worker's first batch). Lanes whose
	// record matches the good record take the screened verdict without
	// transforming, and byte-identical records share one memoized
	// verdict.
	workers := min(max(e.Opts.DetectWorkers, 1), nBatches)
	scratch := make([]*spectest.Scratch, workers)
	var memo *memoTable
	if !e.Opts.DisableMemo {
		memo = newMemoTable()
	}
	detect := func(sc *spectest.Scratch, lo int, lanes [][]int64) (batchResult, error) {
		if err := resilient.Fire(fpDetBatch); err != nil {
			return batchResult{}, err
		}
		out := batchResult{results: make([]fault.Result, len(lanes))}
		for i, rec := range lanes {
			f := e.U.Faults[lo+i]
			res := &out.results[i]
			*res = fault.Result{Fault: f, Tap: e.U.FIR.TapOfNet(f.Net)}
			res.FirstDiff, res.MaxAbsDiff = fault.DiffStats(good, rec)
			if !e.Opts.DisableScreen && res.MaxAbsDiff == 0 {
				res.Detected = goodDetected
				out.screened++
				continue
			}
			var h uint64
			if memo != nil {
				h = HashRecord(rec)
				if d, ok := memo.lookup(h, rec); ok {
					res.Detected = d
					out.memoized++
					continue
				}
			}
			var t0 time.Time
			if verdictHist != nil {
				t0 = time.Now()
			}
			det, err := e.Det.DetectRecord(rec, sc)
			if verdictHist != nil {
				verdictHist.Observe(time.Since(t0).Seconds())
			}
			if err != nil {
				return batchResult{}, err
			}
			if memo != nil {
				memo.insert(h, rec, det)
			}
			res.Detected = det
			out.spectra++
		}
		return out, nil
	}
	plan := mcengine.Plan[runTotal, batchResult]{
		Span: "campaign.pipeline", N: nf, BatchSize: lanesPerBatch, Workers: workers,
		Checkpoint: e.Opts.Checkpoint, CheckpointName: e.Opts.CheckpointName,
		Ident: fmt.Sprintf("patterns=%d stim=%016x", len(xs), HashRecord(xs)),
		Kernel: func(w, lane, count int) (batchResult, error) {
			lo := lane * lanesPerBatch
			if err := resilient.Fire(fpSimBatch); err != nil {
				return batchResult{}, err
			}
			var (
				lanes [][]int64
				err   error
			)
			if useDiff {
				lanes, err = fault.RecordsFromBaseline(e.U, base, e.U.Faults[lo:lo+count])
			} else {
				_, lanes, err = fault.Records(e.U, xs, e.U.Faults[lo:lo+count])
			}
			if err != nil {
				return batchResult{}, err
			}
			genCounter.Add(int64(len(lanes)))
			if scratch[w] == nil {
				if scratch[w], err = e.Det.NewScratch(); err != nil {
					return batchResult{}, err
				}
			}
			if reg != nil {
				t := time.Now()
				out, err := detect(scratch[w], lo, lanes)
				busyNanos.Add(int64(time.Since(t)))
				return out, err
			}
			return detect(scratch[w], lo, lanes)
		},
		Merge: func(t runTotal, lane int, b batchResult) runTotal {
			copy(t.Results[lane*lanesPerBatch:], b.results)
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
				t.Results[i].Quarantined = true
			}
			t.Quarantined += count
			return t
		}
	}
	// Prefill the fault identity so partial (canceled) and quarantined
	// entries still say which fault they cover.
	total := runTotal{Results: make([]fault.Result, nf)}
	for i, f := range e.U.Faults {
		total.Results[i] = fault.Result{Fault: f, Tap: e.U.FIR.TapOfNet(f.Net), FirstDiff: -1}
	}
	var pipeStart time.Time
	if reg != nil {
		pipeStart = time.Now()
	}
	total, _, err = mcengine.Execute(runCtx, plan, total)
	if err != nil && !resilient.Interrupted(err) {
		return nil, nil, err
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
		if memo != nil {
			// A miss is a lane that paid its own transform while the
			// memo was on — exactly the spectra computed in the pool.
			reg.Counter("campaign_memo_misses_total").Add(int64(total.Spectra))
		}
		reg.Counter("campaign_spectra_total").Add(int64(stats.Spectra))
		if wall := time.Since(pipeStart).Seconds(); wall > 0 && workers > 0 {
			busy := float64(busyNanos.Load()) / 1e9
			reg.Gauge("campaign_fft_worker_utilization").Set(busy / (wall * float64(workers)))
		}
	}
	return rep, stats, nil
}

// memoTable memoizes detection verdicts by record content. Hash
// collisions are resolved by full record comparison, so a hit is an
// exact byte-identical match and reusing its verdict cannot change any
// result (the detector is a pure function of the record). Two workers
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
	m.buckets[h] = append(m.buckets[h], memoEntry{rec: rec, detected: detected})
	m.bytes += 8 * len(rec)
}
