package soc

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mstx/internal/resilient"
)

// defaultSOC returns the test's own copy of the reference SOC.
func defaultSOC(t testing.TB) *SOC {
	t.Helper()
	s, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDefaultSOCShape(t *testing.T) {
	checkDefaultShape(t, defaultSOC(t))
}

// TestDefaultReturnsCopy mutates the SOC Default returned: the next
// Default must be unaffected, since the model is built once per
// process and every caller gets its own copy.
func TestDefaultReturnsCopy(t *testing.T) {
	s := defaultSOC(t)
	want := defaultSOC(t)
	s.Cores[0].Tests[0].Cycles = 0
	s.Cores[0].Tests[0].Resources[0] = "mutated"
	s.Cores[1].Tests = s.Cores[1].Tests[:1]
	s.Cores[2].ID = "mutated"
	s.Cores = s.Cores[:1]

	got := defaultSOC(t)
	checkDefaultShape(t, got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Default after mutating an earlier result:\n%+v\nwant\n%+v", got, want)
	}
}

// TestDefaultConcurrent has several goroutines take and mutate their
// own Default at once, as concurrent soc jobs do (run under -race).
func TestDefaultConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := Default()
			if err != nil {
				t.Error(err)
				return
			}
			s.Cores[0].Tests[0].Resources[0] = "mutated"
			s.Cores[0].Tests[0].Cycles++
		}()
	}
	wg.Wait()
	checkDefaultShape(t, defaultSOC(t))
}

// checkDefaultShape checks the reference SOC's structure.
func checkDefaultShape(t *testing.T, s *SOC) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	wantCores := []string{"rx-a", "rx-sd", "fir-c", "fir-d"}
	if len(s.Cores) != len(wantCores) {
		t.Fatalf("got %d cores, want %d", len(s.Cores), len(wantCores))
	}
	for i, id := range wantCores {
		if s.Cores[i].ID != id {
			t.Errorf("core %d = %q, want %q", i, s.Cores[i].ID, id)
		}
	}
	// The analog plans come from the real translate machinery: both
	// receive-path cores must carry the boundary test plus several
	// translated parameter tests, each holding the shared digitizer.
	for _, ci := range []int{0, 1} {
		c := s.Cores[ci]
		if c.Kind != "analog" {
			t.Errorf("core %q kind = %q, want analog", c.ID, c.Kind)
		}
		if len(c.Tests) < 5 {
			t.Errorf("core %q has only %d tests", c.ID, len(c.Tests))
		}
		var sawBoundary, sawAWG bool
		for _, tt := range c.Tests {
			if tt.Name == "boundary" {
				sawBoundary = true
			}
			holdsDig := false
			for _, r := range tt.Resources {
				if r == "digitizer" {
					holdsDig = true
				}
				if r == "awg" {
					sawAWG = true
				}
			}
			if !holdsDig {
				t.Errorf("analog test %s/%s does not hold the digitizer", c.ID, tt.Name)
			}
		}
		if !sawBoundary {
			t.Errorf("core %q has no boundary test", c.ID)
		}
		if !sawAWG {
			t.Errorf("core %q has no propagation test holding the AWG", c.ID)
		}
	}
	// Digital cores are resource-free and structurally derived.
	for _, ci := range []int{2, 3} {
		c := s.Cores[ci]
		if c.Kind != "digital" {
			t.Errorf("core %q kind = %q, want digital", c.ID, c.Kind)
		}
		for _, tt := range c.Tests {
			if len(tt.Resources) != 0 {
				t.Errorf("digital test %s/%s holds resources %v", c.ID, tt.Name, tt.Resources)
			}
		}
	}
	// The sigma-delta interface ships 1-bit samples at OSR 8 vs 12-bit
	// Nyquist words: for the same planned test the volumes must differ
	// by exactly 8/12 when both plans chose the same capture count.
	if s.Cores[0].Tests[0].Name == s.Cores[1].Tests[0].Name {
		a, b := s.Cores[0].Tests[0], s.Cores[1].Tests[0]
		if a.Cycles*8 != b.Cycles*12 {
			t.Errorf("interface volumes: nyquist %d vs sigma-delta %d, want ratio 12:8", a.Cycles, b.Cycles)
		}
	}
}

func TestTestDuration(t *testing.T) {
	tt := Test{Name: "x", Cycles: 100, Settle: 7, MaxWidth: 4}
	cases := []struct {
		w    int
		want int64
	}{
		{-1, 107}, {0, 107}, {1, 107}, {2, 57}, {3, 41}, {4, 32}, {5, 32}, {100, 32},
	}
	for _, c := range cases {
		if got := tt.Duration(c.w); got != c.want {
			t.Errorf("Duration(%d) = %d, want %d", c.w, got, c.want)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	good := func() *SOC {
		return &SOC{Name: "x", Cores: []Core{
			{ID: "a", WrapperWidth: 2, Tests: []Test{{Name: "t", Cycles: 1, MaxWidth: 1}}},
		}}
	}
	cases := []struct {
		name string
		mut  func(*SOC)
		want string
	}{
		{"no cores", func(s *SOC) { s.Cores = nil }, "no cores"},
		{"dup core", func(s *SOC) { s.Cores = append(s.Cores, s.Cores[0]) }, "duplicate core ID"},
		{"empty id", func(s *SOC) { s.Cores[0].ID = "" }, "empty ID"},
		{"bad wrapper", func(s *SOC) { s.Cores[0].WrapperWidth = 0 }, "wrapper width"},
		{"no tests", func(s *SOC) { s.Cores[0].Tests = nil }, "no tests"},
		{"dup test", func(s *SOC) { s.Cores[0].Tests = append(s.Cores[0].Tests, s.Cores[0].Tests[0]) }, "duplicate test"},
		{"bad cycles", func(s *SOC) { s.Cores[0].Tests[0].Cycles = 0 }, "cycles"},
		{"bad settle", func(s *SOC) { s.Cores[0].Tests[0].Settle = -1 }, "settle"},
		{"bad width", func(s *SOC) { s.Cores[0].Tests[0].MaxWidth = 0 }, "max width"},
	}
	for _, c := range cases {
		s := good()
		c.mut(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
	if err := good().Validate(); err != nil {
		t.Errorf("good SOC rejected: %v", err)
	}
}

func TestSelect(t *testing.T) {
	s := defaultSOC(t)
	sub, err := Select(s, []string{"rx-a", "fir-d"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Cores) != 2 || sub.Cores[0].ID != "rx-a" || sub.Cores[1].ID != "fir-d" {
		t.Fatalf("selection = %+v", sub.Cores)
	}
	if _, err := Select(s, []string{"rx-a", "nope"}); err == nil || !strings.Contains(err.Error(), "unknown core IDs") {
		t.Errorf("unknown ID: err = %v", err)
	}
	if _, err := Select(s, []string{"rx-a", "rx-a"}); err == nil || !strings.Contains(err.Error(), "duplicate core ID") {
		t.Errorf("duplicate ID: err = %v", err)
	}
	if all, err := Select(s, nil); err != nil || all != s {
		t.Errorf("empty selection: %v %v", all, err)
	}
}

func TestPlanFeasibleAndBounded(t *testing.T) {
	s := defaultSOC(t)
	sch, err := Plan(context.Background(), s, 16, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Validate(s); err != nil {
		t.Fatal(err)
	}
	if len(sch.Assignments) != s.NumTests() {
		t.Fatalf("placed %d of %d tests", len(sch.Assignments), s.NumTests())
	}
	if u := sch.Utilization(); u <= 0 || u > 1 {
		t.Errorf("utilization %v outside (0,1]", u)
	}
	if sch.EffectiveWidth > sch.TAMWidth {
		t.Errorf("effective width %d exceeds TAM width %d", sch.EffectiveWidth, sch.TAMWidth)
	}
}

func TestPlanSweepMonotone(t *testing.T) {
	s := defaultSOC(t)
	widths := make([]int, 24)
	for i := range widths {
		widths[i] = i + 1
	}
	scheds, err := PlanSweep(context.Background(), s, widths, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(scheds); i++ {
		if scheds[i].Makespan > scheds[i-1].Makespan {
			t.Errorf("makespan rose from %d (W=%d) to %d (W=%d)",
				scheds[i-1].Makespan, widths[i-1], scheds[i].Makespan, widths[i])
		}
	}
	// Widening must actually pay somewhere across this range, or the
	// whole sweep degenerated.
	if scheds[len(scheds)-1].Makespan >= scheds[0].Makespan {
		t.Errorf("no speedup from W=1 (%d) to W=24 (%d)", scheds[0].Makespan, scheds[len(scheds)-1].Makespan)
	}
}

func TestPlanWorkerAndSweepInvariance(t *testing.T) {
	s := defaultSOC(t)
	base, err := Plan(context.Background(), s, 12, Options{Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 5} {
		got, err := Plan(context.Background(), s, 12, Options{Seed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != base.String() {
			t.Fatalf("workers=%d schedule differs:\n%s\nvs\n%s", workers, got.String(), base.String())
		}
	}
	// A width requested inside a larger sweep must return the same
	// schedule as requesting it alone (lanes are width-independent).
	sweep, err := PlanSweep(context.Background(), s, []int{4, 12, 20}, Options{Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sweep[1].String() != base.String() {
		t.Fatalf("W=12 inside sweep differs from solo plan:\n%s\nvs\n%s", sweep[1].String(), base.String())
	}
}

func TestPlanSweepRejects(t *testing.T) {
	s := defaultSOC(t)
	if _, err := PlanSweep(context.Background(), s, nil, Options{}); err == nil {
		t.Error("empty widths accepted")
	}
	if _, err := PlanSweep(context.Background(), s, []int{8, 0}, Options{}); err == nil || !strings.Contains(err.Error(), "must be >= 1") {
		t.Errorf("width 0: err = %v", err)
	}
	bad := &SOC{Name: "bad"}
	if _, err := PlanSweep(context.Background(), bad, []int{4}, Options{}); err == nil {
		t.Error("invalid SOC accepted")
	}
}

func TestPlanCanceled(t *testing.T) {
	s := defaultSOC(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Plan(ctx, s, 8, Options{Seed: 1}); err == nil {
		t.Error("canceled plan returned no error")
	}
}

// TestPlanCheckpointResume kills a sweep mid-run with an injected
// failpoint error, then resumes from the snapshot directory: the
// resumed result must be bit-identical to an uninterrupted baseline.
func TestPlanCheckpointResume(t *testing.T) {
	s := defaultSOC(t)
	opts := Options{Seed: 3, Workers: 2, Iterations: 16}
	widths := []int{5, 10}
	base, err := PlanSweep(context.Background(), s, widths, opts)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "ckpt")
	interrupted := opts
	interrupted.Checkpoint = &resilient.Checkpointer{Dir: dir, Every: 1}

	fps := resilient.NewFailpoints()
	fps.Set("soc.schedule", resilient.Action{Err: context.DeadlineExceeded, After: 6})
	resilient.Install(fps)
	_, err = PlanSweep(context.Background(), s, widths, interrupted)
	resilient.Install(nil)
	if err == nil {
		t.Fatal("injected failure did not surface")
	}

	resumed := opts
	resumed.Checkpoint = &resilient.Checkpointer{Dir: dir, Every: 1, Resume: true}
	got, err := PlanSweep(context.Background(), s, widths, resumed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if got[i].String() != base[i].String() {
			t.Fatalf("resumed schedule W=%d differs:\n%s\nvs\n%s", widths[i], got[i].String(), base[i].String())
		}
	}
}

// TestPlanCheckpointRefusesOtherIterations resumes a snapshot of a
// 1-iteration sweep with a 400-iteration budget: the lanes hold
// another optimization, so the resume must be refused, not published.
func TestPlanCheckpointRefusesOtherIterations(t *testing.T) {
	s := defaultSOC(t)
	dir := filepath.Join(t.TempDir(), "ckpt")
	widths := []int{1, 2, 3, 4}
	short := Options{Seed: 3, Workers: 1, Iterations: 1, Checkpoint: &resilient.Checkpointer{Dir: dir, Every: 1}}
	if _, err := PlanSweep(context.Background(), s, widths, short); err != nil {
		t.Fatal(err)
	}
	long := Options{Seed: 3, Workers: 1, Iterations: 400, Checkpoint: &resilient.Checkpointer{Dir: dir, Every: 1, Resume: true}}
	_, err := PlanSweep(context.Background(), s, widths, long)
	var ce *resilient.CheckpointError
	if !errors.As(err, &ce) {
		t.Fatalf("resume at another iteration budget: err = %v, want a *resilient.CheckpointError", err)
	}
}

func TestLowerBoundDominatedByResource(t *testing.T) {
	// Two single-test cores sharing one exclusive resource: however
	// wide the TAM, the bound must reflect their serialization.
	s := &SOC{Name: "x", Cores: []Core{
		{ID: "a", WrapperWidth: 8, Tests: []Test{{Name: "t", Cycles: 100, MaxWidth: 8, Resources: []string{"r"}}}},
		{ID: "b", WrapperWidth: 8, Tests: []Test{{Name: "t", Cycles: 100, MaxWidth: 8, Resources: []string{"r"}}}},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	lb := LowerBound(s, 64)
	if want := int64(13 + 13); lb != want { // ceil(100/8) each, serialized
		t.Errorf("LowerBound = %d, want %d", lb, want)
	}
	sch, err := Plan(context.Background(), s, 64, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Validate(s); err != nil {
		t.Fatal(err)
	}
	if sch.Makespan != lb {
		t.Errorf("makespan %d, want optimal %d", sch.Makespan, lb)
	}
}
