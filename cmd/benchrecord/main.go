// Command benchrecord parses `go test -bench -benchmem` output from
// stdin and appends one entry to a JSON performance-trajectory file
// (BENCH_dsp.json, BENCH_campaign.json at the repo root). With
// -compare it first checks the run against the last recorded entry and
// exits non-zero on a regression — >15% ns/op growth (tunable with
// -max-ns-regress) or allocs/op growth beyond -max-allocs-regress
// percent (default 0: exact) on a benchmark present in both — without
// appending, which makes it the perf gate in scripts/check.sh. Each
// new entry carries an environment stamp (goos, goarch, cpu and
// GOMAXPROCS) read from the same go test output, and -compare gates
// against the last entry whose stamp equals the run's. A trajectory
// with entries but none from this environment (stampless entries
// included) fails -compare with a message naming both environments
// rather than comparing numbers across hosts; record a first entry
// here without -compare to start gating.
//
// A benchmark may appear several times in the input, as `go test
// -count N` prints it: the recorded entry then holds the median ns/op,
// B/op and allocs/op of the N samples plus their min/max spread, and
// -compare gates on the medians, so one noisy sample can neither fail
// nor pass the gate alone. A name seen under two packages, or under two
// environments, is still rejected.
//
// Usage:
//
//	go test -bench X -benchmem ./pkg | benchrecord -out BENCH_x.json \
//	    -sha "$(git rev-parse --short HEAD)" -date "$(date -u +%FT%TZ)" -compare
//
// The commit SHA and timestamp are passed in by the caller rather than
// read here, so the tool itself stays deterministic for a given input.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// BenchResult is one benchmark's measurements from a run. For a run
// of several samples (-count N) each measurement is the median of the
// samples, and Samples, NsMin/NsMax and AllocsMin/AllocsMax record
// how many there were and how far they spread; a one-sample run leaves
// those zero.
type BenchResult struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Samples     int     `json:"samples,omitempty"`
	NsMin       float64 `json:"ns_min,omitempty"`
	NsMax       float64 `json:"ns_max,omitempty"`
	AllocsMin   int64   `json:"allocs_min,omitempty"`
	AllocsMax   int64   `json:"allocs_max,omitempty"`
}

// Env is the environment stamp of a run, taken from the go test
// output itself: the goos/goarch/cpu header lines and the -N
// GOMAXPROCS suffix of the benchmark names (no suffix at all means
// GOMAXPROCS 1). Entries recorded before stamps existed have none.
type Env struct {
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
}

// Entry is one recorded run of a benchmark suite.
type Entry struct {
	SHA        string                 `json:"sha"`
	Date       string                 `json:"date"`
	Env        *Env                   `json:"env,omitempty"`
	Benchmarks map[string]BenchResult `json:"benchmarks"`
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchrecord", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("out", "", "trajectory JSON file to append to (required)")
		sha      = fs.String("sha", "", "commit SHA to record")
		date     = fs.String("date", "", "UTC timestamp to record (RFC 3339)")
		compare  = fs.Bool("compare", false, "gate against the last entry from this environment before appending")
		maxNs    = fs.Float64("max-ns-regress", 15, "allowed ns/op growth vs baseline, percent")
		maxAlloc = fs.Float64("max-allocs-regress", 0, "allowed allocs/op growth vs baseline, percent (0 = exact)")
		echoOnly = fs.Bool("n", false, "parse and print, do not write the trajectory file")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: go test -bench X -benchmem ./pkg | benchrecord -out FILE [-sha S] [-date D] [-compare]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *out == "" && !*echoOnly {
		fmt.Fprintln(stderr, "benchrecord: -out is required")
		return 2
	}

	benches, env, err := parseBench(stdin)
	if err != nil {
		fmt.Fprintf(stderr, "benchrecord: %v\n", err)
		return 2
	}
	if len(benches) == 0 {
		fmt.Fprintln(stderr, "benchrecord: no benchmark lines in input")
		return 2
	}
	for _, name := range sortedKeys(benches) {
		r := benches[name]
		fmt.Fprintf(stdout, "%-40s %10d iter %14.1f ns/op %8d B/op %6d allocs/op",
			name, r.Iterations, r.NsPerOp, r.BPerOp, r.AllocsPerOp)
		if r.Samples > 1 {
			fmt.Fprintf(stdout, " (median of %d, ns/op %.1f..%.1f)", r.Samples, r.NsMin, r.NsMax)
		}
		fmt.Fprintln(stdout)
	}
	if *echoOnly {
		return 0
	}

	trajectory, err := loadTrajectory(*out)
	if err != nil {
		fmt.Fprintf(stderr, "benchrecord: %v\n", err)
		return 2
	}
	if *compare && len(trajectory) > 0 {
		baseline, ok := lastFrom(trajectory, env)
		if !ok {
			fmt.Fprintf(stderr, "benchrecord: %s has no entry from this environment (%s); the last entry's environment: %s\n",
				*out, &env, trajectory[len(trajectory)-1].Env)
			fmt.Fprintf(stderr, "benchrecord: not comparing %s across environments; record a baseline here without -compare\n",
				strings.Join(sortedKeys(benches), ", "))
			return 1
		}
		regressions := compareRuns(baseline.Benchmarks, benches, *maxNs, *maxAlloc)
		if len(regressions) > 0 {
			fmt.Fprintf(stderr, "benchrecord: %d regression(s) vs %s (%s):\n",
				len(regressions), baseline.SHA, baseline.Date)
			for _, r := range regressions {
				fmt.Fprintf(stderr, "  %s\n", r)
			}
			fmt.Fprintf(stderr, "benchrecord: not recording; fix or re-baseline %s\n", *out)
			return 1
		}
	}

	trajectory = append(trajectory, Entry{SHA: *sha, Date: *date, Env: &env, Benchmarks: benches})
	if err := writeTrajectory(*out, trajectory); err != nil {
		fmt.Fprintf(stderr, "benchrecord: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "recorded %d benchmarks to %s (%d entries)\n", len(benches), *out, len(trajectory))
	return 0
}

// String names the environment for gate messages.
func (e *Env) String() string {
	if e == nil {
		return "none (a stampless entry)"
	}
	return fmt.Sprintf("%s/%s, cpu %q, GOMAXPROCS %d", e.GOOS, e.GOARCH, e.CPU, e.GOMAXPROCS)
}

// lastFrom returns the last entry recorded in environment env.
func lastFrom(trajectory []Entry, env Env) (Entry, bool) {
	for i := len(trajectory) - 1; i >= 0; i-- {
		if e := trajectory[i].Env; e != nil && *e == env {
			return trajectory[i], true
		}
	}
	return Entry{}, false
}

// parseBench extracts benchmark result lines from go test output,
// plus the run's environment stamp. Lines look like
//
//	BenchmarkWelchScratch-8   50   234807 ns/op   97 B/op   0 allocs/op
//
// with the B/op and allocs/op columns present only under -benchmem.
// The -N GOMAXPROCS suffix is stripped so recorded names are stable
// across machines, and kept in the stamp. Output that mixes
// environments (two packages' headers disagreeing, or two different
// -N suffixes) is rejected: one entry has one stamp. Repeated lines of
// one benchmark in one package are samples of it (-count N) and are
// summarized by median; the same name under two packages is rejected.
func parseBench(r io.Reader) (map[string]BenchResult, Env, error) {
	samples := make(map[string][]BenchResult)
	pkgOf := make(map[string]string)
	var env Env
	var pkg string
	headers := false
	header := map[string]*string{"goos:": &env.GOOS, "goarch:": &env.GOARCH, "cpu:": &env.CPU}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) > 1 {
			if fields[0] == "pkg:" {
				pkg = fields[1]
				continue
			}
			if dst, ok := header[fields[0]]; ok {
				v := strings.TrimSpace(strings.TrimPrefix(line, fields[0]))
				if *dst != "" && *dst != v {
					return nil, Env{}, fmt.Errorf("mixed environments in input: %s %q and %q", fields[0], *dst, v)
				}
				*dst, headers = v, true
				continue
			}
		}
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if procs, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
				if env.GOMAXPROCS != 0 && env.GOMAXPROCS != procs {
					return nil, Env{}, fmt.Errorf("mixed environments in input: GOMAXPROCS %d and %d", env.GOMAXPROCS, procs)
				}
				env.GOMAXPROCS = procs
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := BenchResult{Iterations: iters}
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				if res.NsPerOp, err = strconv.ParseFloat(val, 64); err == nil {
					ok = true
				}
			case "B/op":
				res.BPerOp, _ = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				res.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
			}
		}
		if !ok {
			continue
		}
		if prev, seen := pkgOf[name]; seen && prev != pkg {
			return nil, Env{}, fmt.Errorf("duplicate benchmark %q in packages %q and %q", name, prev, pkg)
		}
		pkgOf[name] = pkg
		samples[name] = append(samples[name], res)
	}
	if err := sc.Err(); err != nil {
		return nil, Env{}, err
	}
	benches := make(map[string]BenchResult, len(samples))
	for name, ss := range samples {
		benches[name] = summarize(ss)
	}
	if env.GOMAXPROCS == 0 && headers && len(benches) > 0 {
		// go test names a GOMAXPROCS=1 benchmark without a suffix.
		env.GOMAXPROCS = 1
	}
	return benches, env, nil
}

// summarize reduces one benchmark's samples to a result: a single
// sample as it is, several to the median of each measurement plus the
// ns/op and allocs/op ranges. For an even count the median is the
// upper of the two middle values, which errs towards failing the gate.
func summarize(ss []BenchResult) BenchResult {
	if len(ss) == 1 {
		return ss[0]
	}
	median := func(key func(BenchResult) float64) (med, lo, hi float64) {
		vals := make([]float64, len(ss))
		for i, s := range ss {
			vals[i] = key(s)
		}
		sort.Float64s(vals)
		return vals[len(vals)/2], vals[0], vals[len(vals)-1]
	}
	iters, _, _ := median(func(r BenchResult) float64 { return float64(r.Iterations) })
	ns, nsMin, nsMax := median(func(r BenchResult) float64 { return r.NsPerOp })
	b, _, _ := median(func(r BenchResult) float64 { return float64(r.BPerOp) })
	allocs, allocsMin, allocsMax := median(func(r BenchResult) float64 { return float64(r.AllocsPerOp) })
	return BenchResult{
		Iterations: int64(iters), NsPerOp: ns, BPerOp: int64(b), AllocsPerOp: int64(allocs),
		Samples: len(ss), NsMin: nsMin, NsMax: nsMax,
		AllocsMin: int64(allocsMin), AllocsMax: int64(allocsMax),
	}
}

// compareRuns returns one human-readable line per regression of cur
// against base. New benchmarks (in cur only) baseline themselves, but
// a benchmark that was in the last entry and is missing from cur is a
// gate failure: a silently dropped benchmark would retire its
// regression coverage without anyone deciding to (a rename must
// re-baseline deliberately, by recording without -compare).
func compareRuns(base, cur map[string]BenchResult, maxNsPct, maxAllocPct float64) []string {
	var regressions []string
	for _, name := range sortedKeys(base) {
		if _, inCur := cur[name]; !inCur {
			regressions = append(regressions, fmt.Sprintf(
				"%s: present in baseline but missing from this run (deleted or renamed? re-baseline without -compare)",
				name))
		}
	}
	for _, name := range sortedKeys(cur) {
		b, inBase := base[name]
		if !inBase {
			continue
		}
		c := cur[name]
		if b.NsPerOp > 0 {
			growth := (c.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
			if growth > maxNsPct {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %.0f ns/op, %.1f%% over baseline %.0f (limit %.0f%%)",
					name, c.NsPerOp, growth, b.NsPerOp, maxNsPct))
			}
		}
		// The default allocs gate is exact; a benchmark whose alloc
		// count is inherently jittery (e.g. one dominated by go/types
		// internals) opts into a small percentage headroom instead.
		allowed := b.AllocsPerOp + int64(float64(b.AllocsPerOp)*maxAllocPct/100)
		if c.AllocsPerOp > allowed {
			if maxAllocPct == 0 {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %d allocs/op, baseline %d (any growth fails)",
					name, c.AllocsPerOp, b.AllocsPerOp))
			} else {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %d allocs/op, baseline %d (limit %.1f%%)",
					name, c.AllocsPerOp, b.AllocsPerOp, maxAllocPct))
			}
		}
	}
	return regressions
}

func sortedKeys(m map[string]BenchResult) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func loadTrajectory(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var trajectory []Entry
	if err := json.Unmarshal(data, &trajectory); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return trajectory, nil
}

func writeTrajectory(path string, trajectory []Entry) error {
	data, err := json.MarshalIndent(trajectory, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
