// Command mstxbench is the repository's end-to-end benchmark: it runs
// the mstxd job service (internal/server with cmd/mstxd's defaults)
// in-process behind a loopback HTTP listener and drives it with a
// closed loop of two clients, each POSTing /v1/jobs and reading the
// job's event stream to `done` before sending its next job.
//
//	mstxbench --workload cold-mix|cache-hits|durable-mix --seed N
//	          --seconds S --trace 0|1 [--spans file] [--root dir]
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced
// run (--trace 1) of the same workload and seed prints the per-layer
// metrics, a per-kind latency budget and the tracing overhead, and
// writes its spans to a file. The JSON's end-to-end timings are scaled
// to a reference machine speed measured beside the rounds (calib.go).
// Every run checks every result and ends with one JSON line:
// {"correct", "attempted", "failed", "metrics"}.
// See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runTimeout bounds a whole run, so a hung job ends the run with an
// error instead of never returning.
const runTimeout = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	spans    string
	root     string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mstxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "cold-mix", "workload: cold-mix, cache-hits or durable-mix")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same jobs")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds (a fixed-count workload runs rounds until it has measured this long)")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics, budget and spans")
	fs.StringVar(&o.spans, "spans", "", "traced run: span output file (default .bench_build/spans-<workload>-<seed>.json under --root)")
	fs.StringVar(&o.root, "root", ".", "repository checkout to read goldens from and write scratch files under")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "mstxbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	o.traced = traceFlag == 1
	if o.spans == "" {
		o.spans = filepath.Join(o.root, ".bench_build", fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	}
	wl, err := workloadByName(o.workload, o.seed)
	var rep *report
	if err == nil {
		rep, err = bench(o, wl)
	}
	if err != nil {
		fmt.Fprintln(stderr, "mstxbench:", err)
		return 1
	}
	rep.print(stdout)
	return 0
}

// report is a run's outcome.
type report struct {
	lines     []string // human-readable lines, printed before the JSON
	correct   bool
	attempted int
	failed    int
	metrics   []metric // the JSON metrics, in print order
}

type metric struct {
	name, unit string
	value      float64
}

func (r *report) addf(format string, a ...any) { r.lines = append(r.lines, fmt.Sprintf(format, a...)) }

// fail records a failed check; the run's JSON says correct=false.
func (r *report) fail(format string, a ...any) {
	r.correct = false
	r.addf("CHECK FAILED: "+format, a...)
}

func (r *report) print(w io.Writer) {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jv, len(r.metrics))
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", m.name, m.value, m.unit)
		ms[m.name] = jv{m.value, m.unit}
	}
	out, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	fmt.Fprintln(w, string(out))
}

// bench runs the rounds of wl, checks every output and computes the
// metrics of the requested mode.
func bench(o options, wl *workload) (*report, error) {
	chk, err := newChecker(o.root)
	if err != nil {
		return nil, err
	}
	workDir := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()

	rep := &report{correct: true}
	rep.addf("%s", envStamp(wl.name, o.seed))
	rep.addf("workload %s: %s", wl.name, wl.why)

	tr := &tracer{t0: time.Now()}
	rn := &runner{wl: wl, workDir: workDir}
	// Rounds repeat until --seconds of timed work is done. Every round
	// runs the same job count, so the server's per-job state (its job
	// table, and on durable-mix its ledger) grows alike in each, however
	// fast the machine is.
	var rs []*roundStats
	var timed time.Duration
	for i := 0; i < rounds || timed < time.Duration(o.seconds*float64(time.Second)); i++ {
		st, err := rn.round(ctx, i, o.traced && i%2 == 1)
		if err != nil {
			return nil, err
		}
		timed += st.timed
		rs = append(rs, st)
		if st.traced {
			for _, recs := range [][]jobRecord{st.setupJobs, st.jobs} {
				for j := range recs {
					tr.addJob(fmt.Sprintf("r%d-%s", i, recs[j].Snap.ID), &recs[j])
				}
			}
		}
	}

	checkJobs(rep, chk, wl, rs)
	e2e, err := endToEnd(rep, rs, func(st *roundStats) bool { return !st.traced })
	if !o.traced {
		if err != nil {
			return nil, err
		}
		rep.metrics = e2e
		return rep, nil
	}
	if err != nil {
		// The traced run's untraced rounds are half a run; too few jobs
		// for a p90 is expected there.
		rep.addf("end-to-end of the untraced rounds: %v", err)
	}
	for _, m := range e2e {
		rep.addf("  untraced rounds: %-23s %14.6g %s", m.name, m.value, m.unit)
	}
	if err := perLayer(ctx, rep, tr, wl, o, workDir, rs); err != nil {
		return nil, err
	}
	if err := tr.write(o.spans); err != nil {
		return nil, err
	}
	rep.addf("spans: %d written to %s", len(tr.spans), o.spans)
	return rep, nil
}

// checkJobs validates every timed job and the run-level invariants:
// the workload's designed cache-hit share, the Resume restart of
// durable rounds, and the job-order digest.
func checkJobs(rep *report, chk *checker, wl *workload, rs []*roundStats) {
	var all []jobRecord
	var hits, lookups float64
	resumeErrs := 0
	for _, st := range rs {
		for i := range st.jobs {
			rep.attempted++
			if err := chk.check(&st.jobs[i]); err != nil {
				rep.failed++
				rep.fail("%v", err)
			}
		}
		for _, e := range st.resumeErrs {
			resumeErrs++
			rep.fail("resume: %s", e)
		}
		all = append(all, st.jobs...)
		hits += st.hits
		lookups += st.hits + st.misses
	}
	rep.addf("jobs: %d attempted, %d failed, error_rate %.6g", rep.attempted, rep.failed, float64(rep.failed)/float64(rep.attempted))
	designed := 0.0
	for _, r := range all {
		if r.Job.Hit {
			designed++
		}
	}
	designed /= float64(len(all))
	if got := hits / lookups; got != designed {
		rep.fail("cache hit ratio %.4f, workload designed %.4f", got, designed)
	}
	rep.addf("shape: cache hit ratio %.4f over %g lookups (designed %.4f)", hits/lookups, lookups, designed)
	if wl.durable && resumeErrs == 0 {
		rep.addf("durable: a Resume restart after each of %d rounds served every finished job's result unchanged", len(rs))
	}
	if d, err := runDigest(all); err != nil {
		rep.fail("%v", err)
	} else {
		rep.addf("digest: %s (identity and result text of timed jobs 0..%d)", d, digestJobs-1)
	}
}

// endToEnd computes the end-to-end metrics over the rounds keep
// accepts (setup_s over every round) and notes their sample counts in
// rep. The timings in the JSON are scaled to reference speed by the
// run's median speed probe (see calib.go); rep also gets them as
// measured.
func endToEnd(rep *report, rs []*roundStats, keep func(*roundStats) bool) ([]metric, error) {
	var lat []float64
	perKind := make(map[string]int)
	var timed time.Duration
	var proc procSample
	var probes []float64
	kept := 0
	for _, st := range rs {
		for _, p := range st.probes {
			probes = append(probes, ms(p))
		}
		if !keep(st) {
			continue
		}
		kept++
		timed += st.timed
		proc = proc.add(st.proc)
		for i := range st.jobs {
			if r := &st.jobs[i]; !r.Done.IsZero() {
				lat = append(lat, r.latencyMS())
				perKind[r.Job.Spec.Kind]++
			}
		}
	}
	done := len(lat)
	if p, v, err := tailPercentile(lat); err == nil {
		rep.addf("latency: %d jobs in %.2f s timed over %d rounds; highest percentile with %d beyond: p%g = %.4g ms",
			done, timed.Seconds(), kept, minBeyond, p, v)
	}
	for _, k := range kinds {
		rep.addf("latency %s: %d jobs", k, perKind[k])
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	// cpu_ms_per_job and peak_rss_mb varied by more than a tenth between
	// runs of one workload on the recording machine, so the JSON carries
	// them as per-layer metrics of the traced run; the untraced run
	// still prints them here.
	rep.addf("cpu_ms_per_job %.6g ms, peak_rss_mb %.6g MiB (per-layer metrics in the JSON)", ms(proc.cpu)/float64(done), rss)
	pmin, pmed, pmax := minMedianMax(probes)
	rep.addf("speed probe: %d points, min %.4g / median %.4g / max %.4g ms against the reference %g ms", len(probes), pmin, pmed, pmax, ms(refProbe))
	wall, err := timeMetrics(rs, keep, 1)
	if err != nil {
		return nil, err
	}
	for _, m := range wall {
		rep.addf("  as measured: %-25s %14.6g %s", m.name, m.value, m.unit)
	}
	out, err := timeMetrics(rs, keep, ms(refProbe)/pmed)
	if err != nil {
		return nil, err
	}
	return append(out, metric{"alloc_mb_per_job", "MiB", float64(proc.totalAlloc) / (1 << 20) / float64(done)}), nil
}

// minMedianMax returns the min, median and max of xs.
func minMedianMax(xs []float64) (lo, mid, hi float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	mid, _ = median(xs)
	return lo, mid, hi
}

// timeMetrics computes the timing metrics with every time multiplied
// by f: setup_s over every round, the rest over the rounds keep
// accepts.
func timeMetrics(rs []*roundStats, keep func(*roundStats) bool, f float64) ([]metric, error) {
	var setups, lat []float64
	perKind := make(map[string][]float64)
	var timed float64
	for _, st := range rs {
		setups = append(setups, st.setup.Seconds()*f)
		if !keep(st) {
			continue
		}
		timed += st.timed.Seconds() * f
		for i := range st.jobs {
			if r := &st.jobs[i]; !r.Done.IsZero() {
				lat = append(lat, r.latencyMS()*f)
				perKind[r.Job.Spec.Kind] = append(perKind[r.Job.Spec.Kind], r.latencyMS()*f)
			}
		}
	}
	setup, _ := median(setups)
	p50, _ := median(lat)
	p90, err := highPercentile(lat, 90)
	if err != nil {
		return nil, fmt.Errorf("job_ms_p90: %w", err)
	}
	out := []metric{
		{"setup_s", "s", setup},
		{"jobs_per_s", "1/s", float64(len(lat)) / timed},
		{"job_ms_p50", "ms", p50},
		{"job_ms_p90", "ms", p90},
	}
	for _, k := range kinds {
		v, err := median(perKind[k])
		if err != nil {
			return nil, fmt.Errorf("%s_ms_p50: %w", k, err)
		}
		out = append(out, metric{k + "_ms_p50", "ms", v})
	}
	return out, nil
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
