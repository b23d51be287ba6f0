package main

import (
	"context"
	"encoding/json"
	"math"
	"math/cmplx"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"mstx/internal/server"
)

// keys generates the setup keys of rounds 0..3 and the keys of timed
// jobs 0..n-1.
func keys(wl *workload, n int) (setup [][]string, timed []string) {
	for r := 0; r < rounds; r++ {
		var ks []string
		for _, j := range wl.setup(r) {
			ks = append(ks, j.key())
		}
		setup = append(setup, ks)
	}
	for k := 0; k < n; k++ {
		timed = append(timed, wl.job(k).key())
	}
	return setup, timed
}

func TestSpecsDeterministicPerSeed(t *testing.T) {
	for _, name := range []string{"cold-mix", "cache-hits", "durable-mix"} {
		a, _ := workloadByName(name, 7)
		b, _ := workloadByName(name, 7)
		c, _ := workloadByName(name, 8)
		sa, ta := keys(a, 400)
		sb, tb := keys(b, 400)
		_, tc := keys(c, 400)
		if !reflect.DeepEqual(sa, sb) || !reflect.DeepEqual(ta, tb) {
			t.Errorf("%s: seed 7 generated different specs on two calls", name)
		}
		if reflect.DeepEqual(ta, tc) {
			t.Errorf("%s: seeds 7 and 8 generated the same timed specs", name)
		}
	}
}

func TestColdMixNeverRepeatsAnIdentity(t *testing.T) {
	for _, seed := range []int64{0, 1, -5, math.MaxInt64} {
		setup, timed := keys(coldMix(seed), 2000)
		seen := make(map[string]bool)
		for _, ks := range append(setup, timed) {
			for _, k := range ks {
				if seen[k] {
					t.Fatalf("seed %d: spec %s repeats", seed, k)
				}
				seen[k] = true
			}
		}
	}
}

func TestColdMixShape(t *testing.T) {
	wl := coldMix(3)
	if g := wl.job(0).Golden; g != goldenE9 {
		t.Errorf("job 0 golden %q, want the E9 default soc", g)
	}
	if j := wl.job(1); j.Golden != goldenE6 || j.Spec.Devices != 6 || j.Spec.CaptureN != 1024 || j.Spec.Seed != 0 {
		t.Errorf("job 1 = %+v, want the E6 golden configuration", j)
	}
	count := make(map[string]int)
	for k := 2; k < 2+8*100; k++ {
		j := wl.job(k)
		if j.Golden != "" || j.Hit {
			t.Fatalf("job %d: %+v", k, j)
		}
		count[j.Spec.Kind]++
	}
	want := map[string]int{kindCampaign: 300, kindMC: 200, kindSOC: 200, kindTranslate: 100}
	if !reflect.DeepEqual(count, want) {
		t.Errorf("kind counts %v, want %v", count, want)
	}
	if n := len(wl.setup(0)); n != len(kinds) {
		t.Errorf("%d warm-up jobs, want one per kind", n)
	}
}

func TestCacheHitsOnlyRepeatsAfterPriming(t *testing.T) {
	wl := cacheHits(11)
	primed := make(map[string]int)
	for _, j := range wl.setup(0) {
		primed[j.key()]++
		if j.Hit {
			t.Errorf("priming job %s marked as a hit", j.key())
		}
	}
	if len(primed) != 2*len(kinds) {
		t.Fatalf("%d distinct primed specs, want two per kind", len(primed))
	}
	count := make(map[string]int)
	for k := 0; k < 400; k++ {
		j := wl.job(k)
		if _, ok := primed[j.key()]; !ok || !j.Hit {
			t.Fatalf("job %d (%s) is not a designed repeat of a primed spec", k, j.key())
		}
		count[j.Spec.Kind]++
	}
	for _, kind := range kinds {
		if count[kind] != 100 {
			t.Errorf("kind %s ran %d of 400 jobs, want an even rotation", kind, count[kind])
		}
	}
}

func TestDurableMixShape(t *testing.T) {
	wl := durableMix(5)
	primed := make(map[string]bool)
	for _, j := range wl.setup(0) {
		primed[j.key()] = true
	}
	fresh := make(map[string]bool)
	n := 4 * durableRoundJobs
	for g := 0; g < n/4; g++ {
		freshInGroup := 0
		for k := 4 * g; k < 4*g+4; k++ {
			j := wl.job(k)
			switch {
			case j.Hit && primed[j.key()]:
			case !j.Hit && !primed[j.key()] && !fresh[j.key()]:
				fresh[j.key()] = true
				freshInGroup++
			default:
				t.Fatalf("job %d (%s, hit %v) breaks the design", k, j.key(), j.Hit)
			}
		}
		if freshInGroup != 1 {
			t.Fatalf("group %d has %d fresh jobs, want 1", g, freshInGroup)
		}
	}
	if got := 1 - float64(len(fresh))/float64(n); got != 0.75 {
		t.Errorf("repeat share %g, want the designed 0.75", got)
	}
}

func TestPercentileRefusesTooFewSamples(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	if _, err := highPercentile(seq(99), 90); err == nil {
		t.Error("p90 of 99 samples leaves 9 beyond it, want a refusal")
	}
	if v, err := highPercentile(seq(100), 90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %g, %v; want 90", v, err)
	}
	for _, c := range []struct {
		n     int
		wantP float64
	}{{20, 50}, {39, 50}, {40, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		p, v, err := tailPercentile(seq(c.n))
		if err != nil || p != c.wantP {
			t.Errorf("n=%d: picked p%g (%v), want p%g", c.n, p, err, c.wantP)
			continue
		}
		if beyond := c.n - int(v); beyond < minBeyond {
			t.Errorf("n=%d: p%g = %g leaves %d beyond it", c.n, p, v, beyond)
		}
	}
	if _, _, err := tailPercentile(seq(19)); err == nil {
		t.Error("19 samples: want a refusal, even the median has 9 beyond it")
	}
	if _, err := median(nil); err == nil {
		t.Error("median of no samples: want an error")
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		children []interval
		want     float64
	}{
		{nil, 100},
		{[]interval{{10, 30}}, 80},
		{[]interval{{10, 30}, {20, 40}}, 70},           // overlap counted once
		{[]interval{{20, 40}, {10, 30}, {50, 60}}, 60}, // unsorted
		{[]interval{{10, 30}, {10, 30}}, 80},           // identical children
		{[]interval{{10, 30}, {15, 20}}, 80},           // nested
		{[]interval{{-10, 10}, {90, 120}}, 80},         // clipped to the parent
		{[]interval{{0, 100}, {30, 40}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("selfTime(%v, %v) = %g, want %g", parent, c.children, got, c.want)
		}
	}
}

func TestProbeFFTFindsTheTones(t *testing.T) {
	x := make([]complex128, 1024)
	probeInput(x, 0) // tones at bins 17 (amplitude 1) and 53 (0.5)
	probeFFT(x)
	for k, c := range x[:len(x)/2] {
		want := 0.0
		switch k {
		case 17:
			want = 512
		case 53:
			want = 256
		}
		if got := cmplx.Abs(c); math.Abs(got-want) > 1e-6 {
			t.Fatalf("bin %d: |X| = %g, want %g", k, got, want)
		}
	}
}

func TestTimeMetricsScaleEveryTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	st := &roundStats{setup: 2 * time.Second, timed: 10 * time.Second}
	for i := 0; i < 40; i++ {
		kind := kinds[i%len(kinds)]
		st.jobs = append(st.jobs, jobRecord{
			Job:  jobSpec{Spec: server.Spec{Kind: kind}},
			Send: t0, Done: t0.Add(time.Duration(i+1) * time.Millisecond),
		})
	}
	for i := 0; i < 70; i++ { // enough jobs for a p90 with ten beyond it
		st.jobs = append(st.jobs, st.jobs[i%40])
	}
	all := func(*roundStats) bool { return true }
	wall, err := timeMetrics([]*roundStats{st}, all, 1)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := timeMetrics([]*roundStats{st}, all, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range wall {
		want := m.value * 0.5
		if m.name == "jobs_per_s" {
			want = m.value / 0.5
		}
		if got := scaled[i].value; scaled[i].name != m.name || math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s: scaled %g, want %g (as measured %g)", m.name, got, want, m.value)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bs benchmarkSpec
	if err := json.Unmarshal(raw, &bs); err != nil {
		t.Fatal(err)
	}
	return bs
}

func TestMetricNames(t *testing.T) {
	bs := readBenchmarkSpec(t)
	for _, w := range bs.Workloads {
		if _, err := workloadByName(w.Name, 1); err != nil || !validMetricName(w.Name) {
			t.Errorf("workload %q: %v", w.Name, err)
		}
	}
	for _, m := range append(bs.EndToEnd, bs.PerLayer...) {
		if !validMetricName(m.Name) {
			t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-]", m.Name)
		}
	}
	for _, bad := range []string{"", "a b", "job/ms", ".lead", "x{y}", "ü"} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true", bad)
		}
	}
}

// emitted returns the names and units of a report's metrics, sorted.
func emitted(rep *report) [][2]string {
	var out [][2]string
	for _, m := range rep.metrics {
		out = append(out, [2]string{m.name, m.unit})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func declared(ms []struct{ Name, Unit string }) [][2]string {
	var out [][2]string
	for _, m := range ms {
		out = append(out, [2]string{m.Name, m.Unit})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// TestRunsEmitDeclaredMetrics runs a short untraced and a short traced
// cache-hits run against this checkout: both must pass every output
// check and emit exactly the metrics BENCHMARK.json declares.
func TestRunsEmitDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service")
	}
	bs := readBenchmarkSpec(t)
	short := func() *workload {
		wl := cacheHits(3)
		wl.roundJobs = 25 // four rounds still hold the 100 jobs a p90 needs
		return wl
	}
	rep, err := bench(options{seed: 3, seconds: 0.1, root: ".."}, short())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct || rep.failed != 0 {
		t.Errorf("untraced run: correct %v, %d failed:\n%v", rep.correct, rep.failed, rep.lines)
	}
	if got, want := emitted(rep), declared(bs.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("untraced metrics %v, BENCHMARK.json declares %v", got, want)
	}
	spans := filepath.Join(t.TempDir(), "spans.json")
	rep, err = bench(options{seed: 3, seconds: 0.1, traced: true, root: "..", spans: spans}, short())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct || rep.failed != 0 {
		t.Errorf("traced run: correct %v, %d failed:\n%v", rep.correct, rep.failed, rep.lines)
	}
	if got, want := emitted(rep), declared(bs.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("traced metrics %v, BENCHMARK.json declares %v", got, want)
	}
	raw, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var sp []span
	if err := json.Unmarshal(raw, &sp); err != nil || len(sp) == 0 {
		t.Errorf("span file: %d spans, %v", len(sp), err)
	}
}

// TestDigestRepeatsAcrossRuns runs one durable-mix round twice with
// the same seed, each on a fresh server: the job-order digest of
// identities and result texts must match.
func TestDigestRepeatsAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service")
	}
	var digests []string
	for i := 0; i < 2; i++ {
		rn := &runner{wl: durableMix(9), workDir: t.TempDir()}
		rn.wl.roundJobs = digestJobs
		st, err := rn.round(context.Background(), 0, false)
		if err != nil {
			t.Fatal(err)
		}
		d, err := runDigest(st.jobs)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	if digests[0] != digests[1] {
		t.Errorf("digests %v differ between two runs of one seed", digests)
	}
}
