package main

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// directPerKind is how many distinct specs of each kind the traced run
// calls the layers on directly.
const directPerKind = 3

// directSpanNames are the benchmark's span names around each kind's
// direct prepare and engine steps.
var directSpanNames = map[string][2]string{
	kindCampaign:  {"direct.core.prepare", "direct.campaign.run"},
	kindMC:        {"", "direct.experiments.table2"},
	kindSOC:       {"direct.soc.model", "direct.soc.plan_sweep"},
	kindTranslate: {"", "direct.translate.estimate"},
}

// perLayer measures the per-layer metrics of a traced run: the server
// layer from the traced rounds' job records, the engine layers by
// calling them directly on the same specs, plus the scaling, FFT,
// durability and runtime probes; then prints the self times and the
// per-kind budget.
func perLayer(ctx context.Context, rep *report, tr *tracer, wl *workload, o options, workDir string, rs []*roundStats) error {
	add := func(name, unit string, v float64) { rep.metrics = append(rep.metrics, metric{name, unit, v}) }
	rss, err := peakRSSMB() // before the direct calls and probes add their own memory
	if err != nil {
		return err
	}
	var jobs, setupJobs []*jobRecord
	var tracedTimed, untracedTimed time.Duration
	var tracedDone, untracedDone, allDone int
	var hits, lookups, rejections float64
	var proc procSample
	for _, st := range rs {
		n := 0
		for i := range st.jobs {
			if !st.jobs[i].Done.IsZero() {
				n++
			}
		}
		allDone += n
		proc = proc.add(st.proc)
		hits += st.hits
		lookups += st.hits + st.misses
		rejections += st.rejections
		if !st.traced {
			untracedTimed += st.timed
			untracedDone += n
			continue
		}
		tracedTimed += st.timed
		tracedDone += n
		for i := range st.jobs {
			jobs = append(jobs, &st.jobs[i])
		}
		for i := range st.setupJobs {
			setupJobs = append(setupJobs, &st.setupJobs[i])
		}
	}

	// Server layer, from the client's timestamps and the jobs' engine
	// spans. Span offsets count from the job's admission inside the
	// POST handler, so pre_engine needs no client clock; post_engine
	// anchors admission at the POST send, over-counting by the
	// request's loopback transit. Cache hits run no engine, so on
	// cache-hits the engine boundaries come from the (traced) priming
	// jobs.
	var submit, wait, pre, post []float64
	sseBytes := 0
	for _, r := range jobs {
		submit = append(submit, ms(r.Accepted.Sub(r.Send)))
		wait = append(wait, ms(r.Done.Sub(r.Open)))
		sseBytes += r.SSEBytes
	}
	engineJobs := withSpans(jobs)
	if len(engineJobs) == 0 {
		engineJobs = withSpans(setupJobs)
	}
	for _, r := range engineJobs {
		first, last := r.engineExtent()
		pre = append(pre, first)
		post = append(post, ms(r.Done.Sub(r.Send))-last)
	}
	for _, m := range []struct {
		name string
		xs   []float64
	}{
		{"server.submit_ms_p50", submit}, {"server.wait_ms_p50", wait},
		{"server.pre_engine_ms_p50", pre}, {"server.post_engine_ms_p50", post},
	} {
		v, err := median(m.xs)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		add(m.name, "ms", v)
	}
	add("server.sse_bytes_per_job", "B", float64(sseBytes)/float64(len(jobs)))
	add("server.cache_hit_ratio", "ratio", hits/lookups)
	add("server.rejections", "count", rejections)

	// Engine layers, called directly on the traced jobs' specs.
	calls := make(map[string][]*layerCall)
	for _, kind := range kinds {
		for i, r := range directSpecs(kind, jobs, setupJobs) {
			lc, err := callLayers(ctx, r.Norm, 0)
			if err != nil {
				return fmt.Errorf("direct %s: %w", kind, err)
			}
			if canonicalText(lc.Text) != canonicalText(r.Snap.Result.Text) {
				rep.fail("direct %s call on job %s's spec formats differently from the service's result", kind, r.Snap.ID)
			}
			names := directSpanNames[kind]
			tr.addLayerCall(fmt.Sprintf("direct-%s-%d", kind, i), lc, names[0], names[1])
			calls[kind] = append(calls[kind], lc)
		}
	}
	cc, mc, sc, tc := calls[kindCampaign], calls[kindMC], calls[kindSOC], calls[kindTranslate]
	add("core.prepare_ms_p50", "ms", medianOf(cc, func(c *layerCall) []float64 { return []float64{ms(c.Prepare)} }))
	add("campaign.run_ms_p50", "ms", medianOf(cc, runMS))
	add("campaign.baseline_ms_p50", "ms", medianOf(cc, spansNamed("campaign.baseline")))
	add("campaign.pipeline_ms_p50", "ms", medianOf(cc, spansNamed("campaign.pipeline")))
	camp := sumCounters(cc)
	add("campaign.records_per_job", "count", float64(camp["campaign_records_generated_total"])/float64(len(cc)))
	add("campaign.spectra_per_job", "count", float64(camp["campaign_spectra_total"])/float64(len(cc)))
	add("campaign.memo_hit_ratio", "ratio", ratio(camp["campaign_memo_hits_total"], camp["campaign_memo_hits_total"]+camp["campaign_memo_misses_total"]))
	add("campaign.screened_ratio", "ratio", ratio(camp["campaign_screened_total"], camp["campaign_faults_total"]))
	add("campaign.fft_worker_utilization", "ratio", medianOf(cc, func(c *layerCall) []float64 {
		return []float64{c.Reg.Gauge("campaign_fft_worker_utilization").Value()}
	}))
	add("experiments.table2_ms_p50", "ms", medianOf(mc, runMS))
	add("experiments.e6_devices_ms_p50", "ms", medianOf(mc, spansNamed("e6.devices")))
	add("experiments.e6_losscheck_ms_p50", "ms", medianOf(mc, spansNamed("e6.losscheck")))
	mcCalls := append(append([]*layerCall(nil), mc...), tc...)
	eng := sumCounters(mcCalls)
	n := float64(len(mcCalls))
	add("mcengine.samples_per_job", "count", float64(eng["mc_samples_total"])/n)
	add("mcengine.rounds_per_job", "count", float64(eng["mc_rounds_total"])/n)
	add("mcengine.lanes_per_job", "count", float64(eng["mc_lanes_total"])/n)
	add("mcengine.early_stop_ratio", "ratio", ratio(eng["mc_early_stops_total"], eng["mc_runs_total"]))
	barrier := 0.0
	for _, c := range mcCalls {
		barrier += c.Reg.Histogram("mc_barrier_wait_seconds", 0, 10, 64).Snapshot().Sum * 1000
	}
	add("mcengine.barrier_wait_ms_per_job", "ms", barrier/n)
	add("soc.model_ms_p50", "ms", medianOf(sc, func(c *layerCall) []float64 { return []float64{ms(c.Prepare)} }))
	add("soc.plan_sweep_ms_p50", "ms", medianOf(sc, runMS))
	add("soc.lanes_per_job", "count", float64(sumCounters(sc)["soc_lanes_total"])/float64(len(sc)))
	add("translate.estimate_ms_p50", "ms", medianOf(tc, runMS))
	add("translate.draws_per_job", "count", float64(sumCounters(tc)["translate_mc_draws_total"])/float64(len(tc)))

	us, ops, err := spectrumProbe(o.seed)
	if err != nil {
		return err
	}
	add("dsp.spectrum_us_1024", "us", us)
	add("dsp.fft_ops_1024", "count", ops)

	// Durability: durable-mix measures its own rounds; the other
	// workloads run one fixed 16-job durable probe round.
	durable := rs
	if !wl.durable {
		probe := durableMix(o.seed)
		probe.roundJobs = 16
		pr := &runner{wl: probe, workDir: workDir}
		st, err := pr.round(ctx, 0, false)
		if err != nil {
			return fmt.Errorf("durable probe: %w", err)
		}
		for _, e := range st.resumeErrs {
			rep.fail("durable probe resume: %s", e)
		}
		durable = []*roundStats{st}
	}
	var ledger, resume []float64
	var ckpt int64
	fresh := 0
	for _, st := range durable {
		ledger = append(ledger, float64(st.ledgerBytes)/1024)
		resume = append(resume, ms(st.resume))
		ckpt += st.ckptBytes
		fresh += st.fresh
	}
	lk, _ := median(ledger)
	rm, _ := median(resume)
	add("resilient.ledger_kb", "KiB", lk)
	add("resilient.ckpt_kb_per_job", "KiB", float64(ckpt)/1024/float64(max(fresh, 1)))
	add("resilient.resume_ms", "ms", rm)

	add("cpu_ms_per_job", "ms", ms(proc.cpu)/float64(allDone))
	add("peak_rss_mb", "MiB", rss)
	add("runtime.gc_per_job", "count", float64(proc.numGC)/float64(allDone))
	add("runtime.gc_pause_ms_per_job", "ms", ms(proc.gcPause)/float64(allDone))

	scal, err := scalingProbe(ctx)
	if err != nil {
		return err
	}
	for _, s := range scal {
		add(s.name, "ratio", s.speedup())
		rep.addf("scaling %s: Workers 1 %.1f ms, Workers %d %.1f ms", s.name, ms(s.serial), s.workers, ms(s.par))
		if !s.sameResultTexts {
			rep.fail("%s: result differs between Workers 1 and %d", s.name, s.workers)
		}
	}

	untracedTPS := float64(untracedDone) / untracedTimed.Seconds()
	tracedTPS := float64(tracedDone) / tracedTimed.Seconds()
	add("trace.overhead_pct", "%", 100*(untracedTPS-tracedTPS)/untracedTPS)
	rep.addf("tracing overhead: untraced rounds %.4g jobs/s, traced rounds %.4g jobs/s", untracedTPS, tracedTPS)

	printSelfTimes(rep, tr)
	printBudget(rep, jobs, rep.metrics)
	return nil
}

// withSpans returns the records that carry engine spans.
func withSpans(rs []*jobRecord) []*jobRecord {
	var out []*jobRecord
	for _, r := range rs {
		if len(r.Spans) > 0 {
			out = append(out, r)
		}
	}
	return out
}

// directSpecs picks up to directPerKind traced jobs of kind with
// distinct specs, timed jobs first, then setup jobs.
func directSpecs(kind string, jobs, setupJobs []*jobRecord) []*jobRecord {
	seen := make(map[string]bool)
	var out []*jobRecord
	for _, r := range append(append([]*jobRecord(nil), jobs...), setupJobs...) {
		if len(out) == directPerKind {
			break
		}
		k := r.Job.key()
		if r.Job.Spec.Kind != kind || r.Snap.Result == nil || seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}

func runMS(c *layerCall) []float64 { return []float64{ms(c.Run)} }

func spansNamed(name string) func(*layerCall) []float64 {
	return func(c *layerCall) []float64 { return registrySpans(c.Reg, name) }
}

// medianOf is the median of f's values over calls (0 with none).
func medianOf(calls []*layerCall, f func(*layerCall) []float64) float64 {
	var xs []float64
	for _, c := range calls {
		xs = append(xs, f(c)...)
	}
	v, _ := median(xs)
	return v
}

func sumCounters(calls []*layerCall) map[string]int64 {
	out := make(map[string]int64)
	for _, c := range calls {
		for k, v := range c.Reg.Counters() {
			out[k] += v
		}
	}
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// printSelfTimes prints each layer's median self time over the job
// traces and over the direct-call traces.
func printSelfTimes(rep *report, tr *tracer) {
	for _, part := range []struct {
		title string
		keep  func(string) bool
	}{
		{"self time per job trace (median ms)", func(t string) bool { return !strings.HasPrefix(t, "direct-") }},
		{"self time per direct-call trace (median ms)", func(t string) bool { return strings.HasPrefix(t, "direct-") }},
	} {
		st := part.keep
		self := tr.selfTimes(st)
		rep.addf("%s:", part.title)
		for _, name := range sortedKeys(self) {
			rep.addf("  %-34s %10.3f", name, self[name])
		}
	}
}

// printBudget prints, per kind and cache path, the traced jobs' p50
// latency split into the layer times that make it up: core.prepare
// (campaign jobs prepare even on a cache hit), on a miss the engine
// layers as called directly and alone plus the engine's in-service
// slowdown (the median extent of the job's own engine spans minus the
// direct time: the concurrent job's share of the cores, and on
// durable-mix the engine checkpoint saves the direct calls do not
// make), and the remainder.
func printBudget(rep *report, jobs []*jobRecord, metrics []metric) {
	m := make(map[string]float64, len(metrics))
	for _, x := range metrics {
		m[x.name] = x.value
	}
	engine := map[string][]string{
		kindCampaign:  {"campaign.run_ms_p50"},
		kindMC:        {"experiments.table2_ms_p50"},
		kindSOC:       {"soc.model_ms_p50", "soc.plan_sweep_ms_p50"},
		kindTranslate: {"translate.estimate_ms_p50"},
	}
	rep.addf("budget per kind and cache path (traced jobs, ms; remainder = server path: HTTP submit and SSE, queue wait, cache claim, result build, ledger):")
	for _, kind := range kinds {
		for _, hit := range []bool{false, true} {
			var lat, inService []float64
			for _, r := range jobs {
				if r.Job.Spec.Kind != kind || r.Done.IsZero() || r.Snap.CacheHit != hit {
					continue
				}
				lat = append(lat, r.latencyMS())
				if len(r.Spans) > 0 {
					first, last := r.engineExtent()
					inService = append(inService, last-first)
				}
			}
			p50, err := median(lat)
			if err != nil {
				continue
			}
			var parts []string
			rest := p50
			term := func(name string, v float64) {
				parts = append(parts, fmt.Sprintf("%s %.2f", name, v))
				rest -= v
			}
			if kind == kindCampaign {
				term("core.prepare", m["core.prepare_ms_p50"])
			}
			path := "hit"
			if !hit {
				path = "miss"
				direct := 0.0
				for _, name := range engine[kind] {
					direct += m[name]
					term(strings.TrimSuffix(name, "_ms_p50"), m[name])
				}
				if in, err := median(inService); err == nil {
					term("in-service slowdown", in-direct)
				}
			}
			terms := strings.Join(append(parts, fmt.Sprintf("remainder %.2f", rest)), " + ")
			rep.addf("  %-9s %-4s p50 %.2f (n=%d) = %s", kind, path, p50, len(lat), terms)
		}
	}
}
