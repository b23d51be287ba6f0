package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate golden files")

// TestTable2Golden pins the formatted E6 Table 2 output byte-for-byte.
// Every input is deterministic — device draws come from per-lane
// engine substreams, measurements run noiseless, and the loss
// cross-check stops at a seed-determined round — so any diff is a real
// behavior change. Regenerate intentionally with:
//
//	go test ./internal/experiments -run Table2Golden -update
func TestTable2Golden(t *testing.T) {
	res, err := Table2(Table2Options{Devices: 6, N: 1024, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e6_table2.golden", res.Format())
}

// checkGolden compares got with testdata/name byte for byte, first
// rewriting the file when the test runs with -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s.\n--- got ---\n%s--- want ---\n%s(run with -update if the change is intentional)", golden, got, want)
	}
}

// TestStuckAtGoldens pins the -quick tables of the three stuck-at
// experiments byte for byte, at the sizes `cmd/experiments -quick`
// runs: E1 (Figure 1 spurs), E2 (coverage vs. tones) and E8 (the
// filter through the analog path). E8's last line, the campaign
// engine's screened/memoized/spectra split, is left out: with several
// workers two of them can both miss the memo table on one record, so
// the split (never a verdict) moves from run to run. Regenerate
// intentionally with:
//
//	go test ./internal/experiments -run StuckAtGoldens -update
func TestStuckAtGoldens(t *testing.T) {
	fig1, err := Fig1(Fig1Options{Patterns: 512})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e1_fig1.golden", fig1.Format())
	tones, err := CoverageVsTones(TonesOptions{Patterns: 256})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e2_tones.golden", tones.Format())
	if testing.Short() {
		t.Skip("E8 golden skipped in -short")
	}
	e8, err := PathFaultSim(PathFaultOptions{BasePatterns: 256, LongPatterns: 512})
	if err != nil {
		t.Fatal(err)
	}
	out := e8.Format()
	engineLine := strings.LastIndex(strings.TrimSuffix(out, "\n"), "\n") + 1
	if !strings.HasPrefix(out[engineLine:], "campaign engine") {
		t.Fatalf("E8 report no longer ends with the engine line:\n%s", out)
	}
	checkGolden(t, "e8_pathfault.golden", out[:engineLine])
}

// TestE9ScheduleGolden pins the formatted E9 SOC schedule sweep
// byte-for-byte at the default configuration — the same table
// `cmd/experiments -e9` prints and the `soc` job kind serves. The
// scheduler is deterministic under its fixed seed (lane RNG
// substreams, lane-order merge), so any diff is a real behavior
// change. Regenerate intentionally with:
//
//	go test ./internal/experiments -run E9ScheduleGolden -update
func TestE9ScheduleGolden(t *testing.T) {
	res, err := SOCPlan(SOCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e9_schedule.golden", res.Format())
}

// TestE9ScheduleGoldenWorkerInvariant re-runs the golden
// configuration at a high worker count: the formatted output must not
// move by a byte.
func TestE9ScheduleGoldenWorkerInvariant(t *testing.T) {
	base, err := SOCPlan(SOCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := SOCPlan(SOCOptions{Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if base.Format() != wide.Format() {
		t.Errorf("worker count changed output:\n%s\nvs\n%s", base.Format(), wide.Format())
	}
}

// TestTable2GoldenWorkerInvariant re-runs the golden configuration at
// a high worker count: the formatted output must not move by a byte.
func TestTable2GoldenWorkerInvariant(t *testing.T) {
	base, err := Table2(Table2Options{Devices: 6, N: 1024, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Table2(Table2Options{Devices: 6, N: 1024, Seed: 0, Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if base.Format() != wide.Format() {
		t.Errorf("worker count changed output:\n%s\nvs\n%s", base.Format(), wide.Format())
	}
}
