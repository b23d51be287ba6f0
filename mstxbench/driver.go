package main

import (
	"context"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mstx/internal/server"
)

// clients is the closed loop's size: one per core of the recording
// machine, each sending its next job only after `done` of the last.
const clients = 2

// rounds is the fewest fresh servers a run sets up; setup_s is their
// median and a traced run alternates untraced and traced rounds.
const rounds = 4

// mstxdConfig is the server configuration cmd/mstxd runs with when
// given no flags: its flag defaults equal server.Config's zero-value
// defaults except -retry-max.
func mstxdConfig() server.Config {
	return server.Config{Workers: 2, EngineWorkers: 0, RetryMax: 2}
}

// roundStats is what one round measured.
type roundStats struct {
	traced    bool
	setup     time.Duration // server.New to the first timed submission
	timed     time.Duration // first timed submission to the last `done`
	setupJobs []jobRecord
	jobs      []jobRecord // timed jobs
	proc      procSample  // process counters over the timed phase
	// probes are the round's speed probes: before the server starts,
	// between the setup jobs and the timed phase (excluded from setup),
	// and after the server stops.
	probes []time.Duration
	// hits, misses and rejections are /metrics deltas over the timed
	// phase.
	hits, misses, rejections float64

	// Durable rounds only: ledger size, bytes of engine checkpoints,
	// fresh (engine-run) timed jobs, and the Resume restart.
	ledgerBytes int64
	ckptBytes   int64
	fresh       int
	resume      time.Duration
	resumeErrs  []string
}

// runner runs the rounds of one workload.
type runner struct {
	wl      *workload
	workDir string // scratch root for durable checkpoint directories
	nextJob int    // next timed job index, continuing across rounds
}

// jobSource hands out jobs to the closed loop's clients.
type jobSource func() (index int, j jobSpec, ok bool)

// closedLoop runs clients that each take the next job from src and
// wait for its `done` before taking another.
func closedLoop(ctx context.Context, c *client, src jobSource, traced bool) []jobRecord {
	var mu sync.Mutex
	var out []jobRecord
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				idx, j, ok := src()
				mu.Unlock()
				if !ok {
					return
				}
				rec := c.runJob(ctx, j, traced)
				rec.Index = idx
				mu.Lock()
				out = append(out, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}

// listSource serves a fixed list as setup jobs (index -1).
func listSource(js []jobSpec) jobSource {
	i := 0
	return func() (int, jobSpec, bool) {
		if i >= len(js) {
			return 0, jobSpec{}, false
		}
		i++
		return -1, js[i-1], true
	}
}

// round starts a fresh server, runs the setup jobs, then the
// workload's roundJobs timed jobs.
func (rn *runner) round(ctx context.Context, idx int, traced bool) (*roundStats, error) {
	st := &roundStats{traced: traced}
	cfg := mstxdConfig()
	if rn.wl.durable {
		dir, err := os.MkdirTemp(rn.workDir, "durable-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.CheckpointDir = dir
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 2 * clients}
	defer tr.CloseIdleConnections()

	st.probes = append(st.probes, speedProbe())
	setupStart := time.Now()
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("round %d: %w", idx, err)
	}
	ts := httptest.NewServer(srv.Handler())
	c := &client{http: &http.Client{Transport: tr}, base: ts.URL}
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			tr.CloseIdleConnections()
			ts.Close()
			srv.Close()
		}
	}
	defer stop()

	st.setupJobs = closedLoop(ctx, c, listSource(rn.wl.setup(idx)), traced)
	for _, r := range st.setupJobs {
		if r.Err != nil || r.Snap.State != server.StateDone {
			return nil, fmt.Errorf("round %d setup job %s: state %q: %v", idx, r.Job.key(), r.Snap.State, r.Err)
		}
	}
	setupEnd := time.Now()
	st.probes = append(st.probes, speedProbe())
	probed := time.Now()
	before, err := c.metricsSnapshot(ctx)
	if err != nil {
		return nil, err
	}
	p0 := sampleProc()
	start := time.Now()
	st.setup = setupEnd.Sub(setupStart) + start.Sub(probed)

	first := rn.nextJob
	src := func() (int, jobSpec, bool) {
		if rn.nextJob-first >= rn.wl.roundJobs {
			return 0, jobSpec{}, false
		}
		k := rn.nextJob
		rn.nextJob++
		return k, rn.wl.job(k), true
	}
	st.jobs = closedLoop(ctx, c, src, traced)
	st.timed = time.Since(start)
	st.proc = sampleProc().sub(p0)
	after, err := c.metricsSnapshot(ctx)
	if err != nil {
		return nil, err
	}
	st.hits = after["server_cache_hits_total"] - before["server_cache_hits_total"]
	st.misses = after["server_cache_misses_total"] - before["server_cache_misses_total"]
	st.rejections = after["server_queue_rejections_total"] - before["server_queue_rejections_total"]
	for _, recs := range [][]jobRecord{st.setupJobs, st.jobs} {
		for i := range recs {
			if j, ok := srv.Get(recs[i].Snap.ID); ok {
				recs[i].Norm = j.Spec
			}
		}
	}
	stop()
	st.probes = append(st.probes, speedProbe())
	if ctx.Err() != nil {
		return nil, fmt.Errorf("round %d: %w", idx, ctx.Err())
	}
	if rn.wl.durable {
		if err := st.measureDurable(cfg.CheckpointDir); err != nil {
			return nil, fmt.Errorf("round %d: %w", idx, err)
		}
	}
	return st, nil
}

// measureDurable sizes the ledger and the engine checkpoints, then
// restarts a server with Resume over the directory and checks that
// it serves every finished job's result unchanged.
func (st *roundStats) measureDurable(dir string) error {
	ledger, err := os.Stat(filepath.Join(dir, "mstxd_jobs.ckpt"))
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	st.ledgerBytes = ledger.Size()
	err = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		if d.Type().IsRegular() && strings.HasPrefix(rel, "job_") {
			info, err := d.Info()
			if err != nil {
				return err
			}
			st.ckptBytes += info.Size()
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("checkpoint sizes: %w", err)
	}
	for _, r := range st.jobs {
		if !r.Job.Hit {
			st.fresh++
		}
	}

	cfg := mstxdConfig()
	cfg.CheckpointDir, cfg.Resume = dir, true
	t0 := time.Now()
	srv, err := server.New(cfg)
	st.resume = time.Since(t0)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	defer srv.Close()
	for _, r := range append(append([]jobRecord(nil), st.setupJobs...), st.jobs...) {
		if r.Snap.Result == nil {
			continue // a failed job: counted by the output checks
		}
		j, ok := srv.Get(r.Snap.ID)
		if !ok {
			st.resumeErrs = append(st.resumeErrs, fmt.Sprintf("job %s missing after resume", r.Snap.ID))
			continue
		}
		snap := srv.Snapshot(j)
		if snap.State != r.Snap.State || snap.Result == nil || snap.Result.Text != r.Snap.Result.Text {
			st.resumeErrs = append(st.resumeErrs, fmt.Sprintf("job %s changed across resume (state %s)", r.Snap.ID, snap.State))
		}
	}
	return nil
}
