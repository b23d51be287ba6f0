package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleRun = `goos: linux
goarch: amd64
pkg: mstx/internal/dsp
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPowerSpectrumAllocating1024 	      50	    118763 ns/op	   37696 B/op	       5 allocs/op
BenchmarkPowerSpectrumScratch1024-8  	      50	     14874 ns/op	       0 B/op	       0 allocs/op
BenchmarkWelchScratch                	      50	    234807 ns/op	      97 B/op	       0 allocs/op
PASS
ok  	mstx/internal/dsp	0.099s
`

func TestParseBench(t *testing.T) {
	benches, _, err := parseBench(strings.NewReader(sampleRun))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(benches))
	}
	// The -8 GOMAXPROCS suffix must be stripped.
	r, ok := benches["BenchmarkPowerSpectrumScratch1024"]
	if !ok {
		t.Fatalf("suffix not stripped: %v", benches)
	}
	if r.Iterations != 50 || r.NsPerOp != 14874 || r.BPerOp != 0 || r.AllocsPerOp != 0 {
		t.Errorf("scratch result = %+v", r)
	}
	if r := benches["BenchmarkPowerSpectrumAllocating1024"]; r.BPerOp != 37696 || r.AllocsPerOp != 5 {
		t.Errorf("allocating result = %+v", r)
	}
}

func TestParseBenchWithoutBenchmem(t *testing.T) {
	benches, _, err := parseBench(strings.NewReader("BenchmarkX-4   100   500 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r := benches["BenchmarkX"]; r.NsPerOp != 500 || r.BPerOp != 0 {
		t.Errorf("result = %+v", r)
	}
}

// TestParseBenchRejectsCrossedDuplicates: repeated lines of one
// benchmark are -count samples, but the same name in two packages or
// under two environments is a mixed run, not a sample.
func TestParseBenchRejectsCrossedDuplicates(t *testing.T) {
	for name, in := range map[string]string{
		"packages":   "pkg: a\nBenchmarkX-4 100 500 ns/op\npkg: b\nBenchmarkX-4 100 510 ns/op\n",
		"gomaxprocs": "BenchmarkX-4 100 500 ns/op\nBenchmarkX-2 100 510 ns/op\n",
		"cpu":        "cpu: A\nBenchmarkX-4 100 500 ns/op\ncpu: B\nBenchmarkX-4 100 510 ns/op\n",
	} {
		if _, _, err := parseBench(strings.NewReader(in)); err == nil {
			t.Errorf("%s: duplicate benchmark accepted", name)
		}
	}
}

// countRun is a -count 5 run of one benchmark whose middle sample is a
// 2x outlier.
const countRun = `goos: linux
goarch: amd64
pkg: mstx/internal/dsp
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPowerSpectrumScratch1024-8  	      50	     14874 ns/op	       0 B/op	       0 allocs/op
BenchmarkPowerSpectrumScratch1024-8  	      50	     15100 ns/op	       0 B/op	       0 allocs/op
BenchmarkPowerSpectrumScratch1024-8  	      50	     29748 ns/op	      16 B/op	       1 allocs/op
BenchmarkPowerSpectrumScratch1024-8  	      60	     14700 ns/op	       0 B/op	       0 allocs/op
BenchmarkPowerSpectrumScratch1024-8  	      50	     15000 ns/op	       0 B/op	       0 allocs/op
PASS
`

func TestParseBenchMedianOfSamples(t *testing.T) {
	benches, env, err := parseBench(strings.NewReader(countRun))
	if err != nil {
		t.Fatal(err)
	}
	r := benches["BenchmarkPowerSpectrumScratch1024"]
	want := BenchResult{
		Iterations: 50, NsPerOp: 15000, BPerOp: 0, AllocsPerOp: 0,
		Samples: 5, NsMin: 14700, NsMax: 29748, AllocsMin: 0, AllocsMax: 1,
	}
	if r != want {
		t.Errorf("summary = %+v, want %+v", r, want)
	}
	if env.GOMAXPROCS != 8 {
		t.Errorf("GOMAXPROCS = %d, want 8", env.GOMAXPROCS)
	}
	// An even count takes the upper middle value.
	two := "BenchmarkX-2 10 100 ns/op\nBenchmarkX-2 10 300 ns/op\n"
	if benches, _, err := parseBench(strings.NewReader(two)); err != nil || benches["BenchmarkX"].NsPerOp != 300 {
		t.Errorf("even-count median = %+v (%v), want 300 ns/op", benches["BenchmarkX"], err)
	}
}

// TestGateUsesMedianOfSamples: against a one-sample baseline, a
// five-sample run whose one outlier sample is 2x slow and allocates
// passes the gate on its median and records the spread, while a run
// whose median regressed fails.
func TestGateUsesMedianOfSamples(t *testing.T) {
	file := filepath.Join(t.TempDir(), "BENCH_test.json")
	base := countRun[:strings.Index(countRun, "BenchmarkPowerSpectrumScratch1024-8  \t      50\t     15100")]
	if code, _, stderr := record(t, file, base, "-sha", "base"); code != 0 {
		t.Fatalf("baseline record exited %d: %s", code, stderr)
	}
	if code, _, stderr := record(t, file, countRun, "-sha", "outlier", "-compare"); code != 0 {
		t.Fatalf("one outlier sample failed the median gate: exit %d, %s", code, stderr)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var trajectory []Entry
	if err := json.Unmarshal(data, &trajectory); err != nil {
		t.Fatal(err)
	}
	got := trajectory[len(trajectory)-1].Benchmarks["BenchmarkPowerSpectrumScratch1024"]
	if got.Samples != 5 || got.NsMin != 14700 || got.NsMax != 29748 || got.AllocsMax != 1 || got.NsPerOp != 15000 {
		t.Errorf("recorded %+v, want the median and spread of 5 samples", got)
	}

	slow := strings.NewReplacer("15100 ns/op", "29000 ns/op", "15000 ns/op", "29500 ns/op").Replace(countRun)
	code, _, stderr := record(t, file, slow, "-sha", "slow", "-compare")
	if code != 1 || !strings.Contains(stderr, "BenchmarkPowerSpectrumScratch1024") {
		t.Fatalf("regressed median: exit %d, stderr %s", code, stderr)
	}
}

func TestCompareRuns(t *testing.T) {
	base := map[string]BenchResult{
		"A": {NsPerOp: 1000, AllocsPerOp: 0},
		"B": {NsPerOp: 1000, AllocsPerOp: 2},
		"C": {NsPerOp: 1000},
	}
	cur := map[string]BenchResult{
		"A": {NsPerOp: 1100, AllocsPerOp: 0}, // +10%: within the 15% limit
		"B": {NsPerOp: 900, AllocsPerOp: 3},  // faster but one more alloc
		"C": {NsPerOp: 1000},                 // unchanged
		"D": {NsPerOp: 9999},                 // new benchmark: no baseline
	}
	regs := compareRuns(base, cur, 15, 0)
	if len(regs) != 1 || !strings.Contains(regs[0], "B") || !strings.Contains(regs[0], "allocs") {
		t.Fatalf("regressions = %v, want only B's alloc growth", regs)
	}
	// A 20% slowdown plus B and C missing from the run: three gates.
	if regs := compareRuns(base, map[string]BenchResult{"A": {NsPerOp: 1200}}, 15, 0); len(regs) != 3 {
		t.Fatalf("slowdown+missing not fully flagged: %v", regs)
	}
}

// TestCompareRunsAllocSlack pins -max-allocs-regress: with a percent
// headroom, growth within the limit passes and growth beyond it fails;
// with the default 0 the gate stays exact, even from a 0 baseline.
func TestCompareRunsAllocSlack(t *testing.T) {
	base := map[string]BenchResult{
		"Big":  {NsPerOp: 1000, AllocsPerOp: 1000},
		"Zero": {NsPerOp: 1000, AllocsPerOp: 0},
	}
	within := map[string]BenchResult{
		"Big":  {NsPerOp: 1000, AllocsPerOp: 1009}, // +0.9% < 1%
		"Zero": {NsPerOp: 1000, AllocsPerOp: 0},
	}
	if regs := compareRuns(base, within, 15, 1); len(regs) != 0 {
		t.Fatalf("growth within slack flagged: %v", regs)
	}
	beyond := map[string]BenchResult{
		"Big":  {NsPerOp: 1000, AllocsPerOp: 1011}, // +1.1% > 1%
		"Zero": {NsPerOp: 1000, AllocsPerOp: 0},
	}
	regs := compareRuns(base, beyond, 15, 1)
	if len(regs) != 1 || !strings.Contains(regs[0], "Big") || !strings.Contains(regs[0], "allocs") {
		t.Fatalf("growth beyond slack not flagged: %v", regs)
	}
	// A 0 baseline gets no headroom from a percent slack: any alloc
	// appearing on a previously alloc-free benchmark still fails.
	leaky := map[string]BenchResult{
		"Big":  {NsPerOp: 1000, AllocsPerOp: 1000},
		"Zero": {NsPerOp: 1000, AllocsPerOp: 1},
	}
	if regs := compareRuns(base, leaky, 15, 1); len(regs) != 1 || !strings.Contains(regs[0], "Zero") {
		t.Fatalf("zero-baseline alloc growth not flagged: %v", regs)
	}
	// Default 0 slack: one extra alloc on Big fails exactly as before.
	exact := map[string]BenchResult{
		"Big":  {NsPerOp: 1000, AllocsPerOp: 1001},
		"Zero": {NsPerOp: 1000, AllocsPerOp: 0},
	}
	if regs := compareRuns(base, exact, 15, 0); len(regs) != 1 || !strings.Contains(regs[0], "any growth fails") {
		t.Fatalf("exact gate lost its bite: %v", regs)
	}
}

// TestCompareRunsMissingBenchmark pins the gate on disappearing
// benchmarks: a name in the last entry that is absent from the new run
// must fail the comparison, not silently retire its coverage.
func TestCompareRunsMissingBenchmark(t *testing.T) {
	base := map[string]BenchResult{
		"A": {NsPerOp: 1000},
		"B": {NsPerOp: 2000, AllocsPerOp: 1},
	}
	cur := map[string]BenchResult{
		"A": {NsPerOp: 1000},
	}
	regs := compareRuns(base, cur, 15, 0)
	if len(regs) != 1 || !strings.Contains(regs[0], "B") || !strings.Contains(regs[0], "missing") {
		t.Fatalf("missing benchmark not flagged: %v", regs)
	}
	// Everything missing: every baseline name is reported.
	if regs := compareRuns(base, map[string]BenchResult{}, 15, 0); len(regs) != 2 {
		t.Fatalf("want 2 missing regressions, got %v", regs)
	}
}

// TestGateFailsOnMissingBenchmark drives the full record pipeline: a
// -compare run whose input dropped a previously recorded benchmark
// must exit 1 and record nothing.
func TestGateFailsOnMissingBenchmark(t *testing.T) {
	file := filepath.Join(t.TempDir(), "BENCH_test.json")
	if code, _, stderr := record(t, file, sampleRun, "-sha", "abc1234", "-date", "2026-08-07T00:00:00Z"); code != 0 {
		t.Fatalf("baseline record exited %d: %s", code, stderr)
	}
	// Same run minus WelchScratch.
	dropped := strings.ReplaceAll(sampleRun,
		"BenchmarkWelchScratch                	      50	    234807 ns/op	      97 B/op	       0 allocs/op\n", "")
	code, _, stderr := record(t, file, dropped, "-sha", "def5678", "-date", "2026-08-07T01:00:00Z", "-compare")
	if code != 1 {
		t.Fatalf("missing benchmark passed the gate (exit %d): %s", code, stderr)
	}
	if !strings.Contains(stderr, "BenchmarkWelchScratch") || !strings.Contains(stderr, "missing") {
		t.Fatalf("gate message does not name the missing benchmark: %s", stderr)
	}
	var entries []Entry
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("failed gate still recorded an entry (%d total)", len(entries))
	}
}

func record(t *testing.T, file, input string, extra ...string) (int, string, string) {
	t.Helper()
	args := append([]string{"-out", file}, extra...)
	var stdout, stderr bytes.Buffer
	code := run(args, strings.NewReader(input), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestRecordAppendsTrajectory(t *testing.T) {
	file := filepath.Join(t.TempDir(), "BENCH_test.json")
	if code, _, stderr := record(t, file, sampleRun, "-sha", "abc1234", "-date", "2026-08-07T00:00:00Z"); code != 0 {
		t.Fatalf("first record exited %d: %s", code, stderr)
	}
	if code, _, stderr := record(t, file, sampleRun, "-sha", "def5678", "-date", "2026-08-07T01:00:00Z", "-compare"); code != 0 {
		t.Fatalf("identical re-record exited %d: %s", code, stderr)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var trajectory []Entry
	if err := json.Unmarshal(data, &trajectory); err != nil {
		t.Fatal(err)
	}
	if len(trajectory) != 2 {
		t.Fatalf("%d entries, want 2", len(trajectory))
	}
	if trajectory[0].SHA != "abc1234" || trajectory[1].SHA != "def5678" {
		t.Errorf("SHAs = %s, %s", trajectory[0].SHA, trajectory[1].SHA)
	}
	if trajectory[1].Benchmarks["BenchmarkWelchScratch"].NsPerOp != 234807 {
		t.Error("benchmark data not preserved")
	}
}

// TestGateFailsOnInjectedSlowdown demonstrates the acceptance
// criterion: a run whose ns/op is inflated past the limit (or whose
// allocs/op grew at all) must fail the -compare gate and must NOT be
// appended to the trajectory.
func TestGateFailsOnInjectedSlowdown(t *testing.T) {
	file := filepath.Join(t.TempDir(), "BENCH_test.json")
	if code, _, stderr := record(t, file, sampleRun, "-sha", "base", "-compare"); code != 0 {
		t.Fatalf("baseline record exited %d: %s", code, stderr)
	}

	// Inject a 2x slowdown into the scratch benchmark.
	slow := strings.Replace(sampleRun, "50\t     14874 ns/op", "50\t     29748 ns/op", 1)
	if slow == sampleRun {
		t.Fatal("slowdown injection did not change the input")
	}
	code, _, stderr := record(t, file, slow, "-sha", "slow", "-compare")
	if code != 1 {
		t.Fatalf("2x slowdown exited %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "BenchmarkPowerSpectrumScratch1024") || !strings.Contains(stderr, "ns/op") {
		t.Errorf("regression report missing the slow benchmark: %s", stderr)
	}

	// Inject an alloc regression: 0 -> 1 allocs/op on the scratch path.
	leaky := strings.Replace(sampleRun, "0 B/op\t       0 allocs/op", "16 B/op\t       1 allocs/op", 1)
	code, _, stderr = record(t, file, leaky, "-sha", "leaky", "-compare")
	if code != 1 {
		t.Fatalf("alloc growth exited %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "allocs/op") {
		t.Errorf("regression report missing alloc growth: %s", stderr)
	}

	// Neither failing run may have been recorded.
	var trajectory []Entry
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &trajectory); err != nil {
		t.Fatal(err)
	}
	if len(trajectory) != 1 || trajectory[0].SHA != "base" {
		t.Fatalf("failed runs were recorded: %d entries", len(trajectory))
	}

	// A 10% drift stays within the default 15% limit and records.
	mild := strings.Replace(sampleRun, "50\t     14874 ns/op", "50\t     16361 ns/op", 1)
	if code, _, stderr := record(t, file, mild, "-sha", "mild", "-compare"); code != 0 {
		t.Fatalf("10%% drift exited %d: %s", code, stderr)
	}
}

func TestRunValidation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, strings.NewReader(sampleRun), &stdout, &stderr); code != 2 {
		t.Errorf("missing -out exited %d, want 2", code)
	}
	file := filepath.Join(t.TempDir(), "b.json")
	if code, _, _ := record(t, file, "no benchmarks here\n"); code != 2 {
		t.Error("benchless input accepted")
	}
	if err := os.WriteFile(file, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := record(t, file, sampleRun); code != 2 {
		t.Error("corrupt trajectory file accepted")
	}
}

func TestEchoOnlyDoesNotWrite(t *testing.T) {
	file := filepath.Join(t.TempDir(), "b.json")
	code, stdout, stderr := record(t, file, sampleRun, "-n")
	if code != 0 {
		t.Fatalf("exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "BenchmarkWelchScratch") {
		t.Error("parsed benchmarks not echoed")
	}
	if _, err := os.Stat(file); !os.IsNotExist(err) {
		t.Error("-n wrote the trajectory file")
	}
}

func TestParseBenchEnvStamp(t *testing.T) {
	_, env, err := parseBench(strings.NewReader(sampleRun))
	if err != nil {
		t.Fatal(err)
	}
	want := Env{GOOS: "linux", GOARCH: "amd64", CPU: "Intel(R) Xeon(R) Processor @ 2.10GHz", GOMAXPROCS: 8}
	if env != want {
		t.Errorf("env = %+v, want %+v", env, want)
	}
	// go test prints no suffix at GOMAXPROCS 1.
	single := "goos: linux\ngoarch: amd64\nBenchmarkX   100   500 ns/op\n"
	if _, env, err := parseBench(strings.NewReader(single)); err != nil || env.GOMAXPROCS != 1 {
		t.Errorf("unsuffixed run: env %+v, err %v; want GOMAXPROCS 1", env, err)
	}
	// Two packages from the same run share one stamp.
	twoPkgs := sampleRun + strings.Replace(strings.Replace(sampleRun, "Benchmark", "BenchmarkOther", -1),
		"pkg: mstx/internal/dsp", "pkg: mstx", 1)
	if _, env, err := parseBench(strings.NewReader(twoPkgs)); err != nil || env != want {
		t.Errorf("two packages: env %+v, err %v", env, err)
	}
}

func TestParseBenchRejectsMixedEnvironments(t *testing.T) {
	for name, in := range map[string]string{
		"cpu":        "cpu: A\nBenchmarkX-2 100 500 ns/op\ncpu: B\nBenchmarkY-2 100 500 ns/op\n",
		"gomaxprocs": "BenchmarkX-2 100 500 ns/op\nBenchmarkY-4 100 500 ns/op\n",
	} {
		if _, _, err := parseBench(strings.NewReader(in)); err == nil {
			t.Errorf("%s: mixed environments accepted", name)
		}
	}
}

// TestRecordStampsEnvAndComparesOldEntries pins that new entries carry
// the stamp while a stampless baseline (recorded before stamps
// existed) fails -compare, naming the benchmarks it would not gate.
func TestRecordStampsEnvAndComparesOldEntries(t *testing.T) {
	file := filepath.Join(t.TempDir(), "BENCH_test.json")
	old := `[{"sha": "old", "date": "d", "benchmarks": {"BenchmarkPowerSpectrumScratch1024": {"iterations": 50, "ns_per_op": 7000, "b_per_op": 0, "allocs_per_op": 0}}}]`
	if err := os.WriteFile(file, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := record(t, file, sampleRun, "-sha", "new", "-compare"); code != 1 ||
		!strings.Contains(stderr, "BenchmarkPowerSpectrumScratch1024") {
		t.Fatalf("2x slower than a stampless baseline: exit %d, stderr %s", code, stderr)
	}
	if code, _, stderr := record(t, file, sampleRun, "-sha", "new"); code != 0 {
		t.Fatalf("record exited %d: %s", code, stderr)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var trajectory []Entry
	if err := json.Unmarshal(data, &trajectory); err != nil {
		t.Fatal(err)
	}
	if len(trajectory) != 2 || trajectory[0].Env != nil {
		t.Fatalf("stampless entry rewritten or run not appended: %+v", trajectory)
	}
	if e := trajectory[1].Env; e == nil || e.GOMAXPROCS != 8 || e.CPU == "" {
		t.Errorf("new entry stamp = %+v", e)
	}
}

// TestCompareRefusesStamplessBaseline: with only a stampless entry,
// -compare refuses even a run that is faster than it, names both
// environments, and records nothing; once a stamped entry exists the
// same environment gates again.
func TestCompareRefusesStamplessBaseline(t *testing.T) {
	file := filepath.Join(t.TempDir(), "BENCH_test.json")
	old := `[{"sha": "old", "date": "d", "benchmarks": {"BenchmarkPowerSpectrumScratch1024": {"iterations": 50, "ns_per_op": 70000, "b_per_op": 0, "allocs_per_op": 0}}}]`
	if err := os.WriteFile(file, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := record(t, file, sampleRun, "-sha", "fast", "-compare")
	if code != 1 || !strings.Contains(stderr, "GOMAXPROCS 8") || !strings.Contains(stderr, "stampless") {
		t.Fatalf("stampless baseline: exit %d, stderr %s; want a refusal naming both environments", code, stderr)
	}
	if code, _, stderr := record(t, file, sampleRun, "-sha", "here"); code != 0 {
		t.Fatalf("record exited %d: %s", code, stderr)
	}
	slow := strings.Replace(sampleRun, "50\t     14874 ns/op", "50\t     29748 ns/op", 1)
	if code, _, stderr := record(t, file, slow, "-sha", "slow", "-compare"); code != 1 ||
		!strings.Contains(stderr, "ns/op") {
		t.Fatalf("2x slowdown after a stamped entry: exit %d, stderr %s", code, stderr)
	}
}

// TestCompareUsesLastEntryFromSameEnvironment: the gate compares
// against the last entry whose stamp equals the run's, skipping later
// entries from other hosts, and refuses when no entry matches.
func TestCompareUsesLastEntryFromSameEnvironment(t *testing.T) {
	file := filepath.Join(t.TempDir(), "BENCH_test.json")
	if code, _, stderr := record(t, file, sampleRun, "-sha", "here"); code != 0 {
		t.Fatalf("baseline record exited %d: %s", code, stderr)
	}
	// A later entry from a 2-CPU host, 3x slower across the board.
	other := strings.ReplaceAll(sampleRun, "-8 ", "-2 ")
	other = strings.Replace(other, "cpu: Intel(R) Xeon(R) Processor @ 2.10GHz", "cpu: Other CPU", 1)
	other = strings.Replace(other, "50\t     14874 ns/op", "50\t     44622 ns/op", 1)
	if code, _, stderr := record(t, file, other, "-sha", "there"); code != 0 {
		t.Fatalf("second-host record exited %d: %s", code, stderr)
	}
	// Back on the first host, the run matches its own baseline: no
	// regression, even though it is 3x faster than the last entry.
	if code, _, stderr := record(t, file, sampleRun, "-sha", "here2", "-compare"); code != 0 {
		t.Fatalf("same-environment compare exited %d: %s", code, stderr)
	}
	// The 2-CPU host's slowdown is judged against its own entry.
	slower := strings.Replace(other, "50\t     44622 ns/op", "50\t     89244 ns/op", 1)
	if code, _, stderr := record(t, file, slower, "-sha", "there2", "-compare"); code != 1 ||
		!strings.Contains(stderr, "44622") {
		t.Fatalf("second-host slowdown: exit %d, stderr %s; want a gate against its own entry", code, stderr)
	}
	// A third host has no entry: refuse, naming its environment and
	// the last entry's (here2, GOMAXPROCS 8).
	third := strings.ReplaceAll(sampleRun, "-8 ", "-4 ")
	code, _, stderr := record(t, file, third, "-sha", "third", "-compare")
	if code != 1 || !strings.Contains(stderr, "GOMAXPROCS 4") || !strings.Contains(stderr, "GOMAXPROCS 8") {
		t.Fatalf("unknown environment: exit %d, stderr %s; want a refusal naming both", code, stderr)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var trajectory []Entry
	if err := json.Unmarshal(data, &trajectory); err != nil {
		t.Fatal(err)
	}
	if len(trajectory) != 3 || trajectory[2].SHA != "here2" {
		t.Fatalf("%d entries, want here, there, here2 (refused runs must not record)", len(trajectory))
	}
}
