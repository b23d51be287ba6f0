package fault

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"mstx/internal/digital"
	"mstx/internal/netlist"
)

func smallFIR(t testing.TB) *digital.FIR {
	t.Helper()
	fir, err := digital.NewFIR([]int64{3, -5, 7}, 6)
	if err != nil {
		t.Fatal(err)
	}
	return fir
}

func sineRecord(n int, amp float64, cycles int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(math.Round(amp * math.Sin(2*math.Pi*float64(cycles)*float64(i)/float64(n))))
	}
	return xs
}

func TestUniverseSizes(t *testing.T) {
	fir := smallFIR(t)
	full := NewUniverse(fir, false)
	collapsed := NewUniverse(fir, true)
	if full.Size() == 0 {
		t.Fatal("empty universe")
	}
	if collapsed.Size() >= full.Size() {
		t.Fatalf("collapsing did not shrink: %d vs %d", collapsed.Size(), full.Size())
	}
	if !collapsed.Collapsed || full.Collapsed {
		t.Error("Collapsed flags wrong")
	}
}

func TestSimulateDetectsInjectedFaults(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, true)
	xs := sineRecord(64, 28, 5)
	rep, err := Simulate(context.Background(), u, xs, ExactDetector{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Patterns != 64 {
		t.Errorf("Patterns = %d", rep.Patterns)
	}
	cov := rep.Coverage()
	if cov < 60 || cov > 100 {
		t.Errorf("implausible coverage %.1f%%", cov)
	}
	if rep.Detected() != len(rep.Results)-len(rep.Undetected()) {
		t.Error("Detected/Undetected inconsistent")
	}
	if !strings.Contains(rep.String(), "faults detected") {
		t.Errorf("String() = %q", rep.String())
	}
	// Every detected fault must have a first-diff index.
	for _, r := range rep.Results {
		if r.Detected && r.FirstDiff < 0 {
			t.Errorf("fault %v detected but FirstDiff = -1", r.Fault)
		}
		if !r.Detected && r.MaxAbsDiff != 0 {
			t.Errorf("fault %v undetected but MaxAbsDiff = %d with threshold 0", r.Fault, r.MaxAbsDiff)
		}
	}
}

func TestSerialMatchesParallel(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, true)
	xs := sineRecord(48, 25, 3)
	par, err := Simulate(context.Background(), u, xs, ExactDetector{})
	if err != nil {
		t.Fatal(err)
	}
	ser, err := SerialSimulate(u, xs, ExactDetector{})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Results) != len(ser.Results) {
		t.Fatal("result count mismatch")
	}
	for i := range par.Results {
		p, s := par.Results[i], ser.Results[i]
		if p.Detected != s.Detected || p.FirstDiff != s.FirstDiff || p.MaxAbsDiff != s.MaxAbsDiff {
			t.Fatalf("fault %v: parallel %+v != serial %+v", p.Fault, p, s)
		}
	}
}

func TestExactDetectorThreshold(t *testing.T) {
	good := []int64{0, 10, 20}
	faulty := []int64{0, 12, 20}
	mustDetect := func(d ExactDetector, g, f []int64) bool {
		t.Helper()
		det, err := d.Detect(g, f)
		if err != nil {
			t.Fatal(err)
		}
		return det
	}
	if !mustDetect(ExactDetector{}, good, faulty) {
		t.Error("threshold 0 missed a 2-LSB diff")
	}
	if mustDetect(ExactDetector{Threshold: 2}, good, faulty) {
		t.Error("threshold 2 detected a 2-LSB diff (must require >)")
	}
	if !mustDetect(ExactDetector{Threshold: 1}, good, faulty) {
		t.Error("threshold 1 missed a 2-LSB diff")
	}
	if mustDetect(ExactDetector{}, good, good) {
		t.Error("identical records detected")
	}
}

// errDetector fails on every record pair; campaigns must surface the
// failure instead of counting phantom undetected faults.
type errDetector struct{}

func (errDetector) Detect(good, faulty []int64) (bool, error) {
	return false, errors.New("detector exploded")
}

func TestSimulateSurfacesDetectorErrors(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, true)
	xs := sineRecord(64, 20, 3)
	if _, err := Simulate(context.Background(), u, xs, errDetector{}); err == nil || !strings.Contains(err.Error(), "detector exploded") {
		t.Errorf("Simulate swallowed the detector error: %v", err)
	}
	if _, err := SerialSimulate(u, xs, errDetector{}); err == nil || !strings.Contains(err.Error(), "detector exploded") {
		t.Errorf("SerialSimulate swallowed the detector error: %v", err)
	}
}

// countingWorkerDetector wraps ExactDetector with WorkerDetector
// bookkeeping so tests can prove the campaign detects through the
// per-worker bound functions rather than the shared Detect.
type countingWorkerDetector struct {
	base        ExactDetector
	newErr      error
	newCalls    atomic.Int64
	boundCalls  atomic.Int64
	directCalls atomic.Int64
}

func (d *countingWorkerDetector) Detect(good, faulty []int64) (bool, error) {
	d.directCalls.Add(1)
	return d.base.Detect(good, faulty)
}

func (d *countingWorkerDetector) NewWorkerDetect() (func(good, faulty []int64) (bool, error), error) {
	if d.newErr != nil {
		return nil, d.newErr
	}
	d.newCalls.Add(1)
	return func(good, faulty []int64) (bool, error) {
		d.boundCalls.Add(1)
		return d.base.Detect(good, faulty)
	}, nil
}

func TestSimulateUsesWorkerDetectors(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, true)
	xs := sineRecord(64, 28, 5)
	want, err := Simulate(context.Background(), u, xs, ExactDetector{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, cd *countingWorkerDetector, rep *Report, wantNew int64) {
		t.Helper()
		if len(rep.Results) != len(want.Results) {
			t.Fatalf("%s: result count mismatch", label)
		}
		for i := range want.Results {
			if rep.Results[i].Detected != want.Results[i].Detected {
				t.Fatalf("%s: fault %v verdict differs from plain ExactDetector",
					label, rep.Results[i].Fault)
			}
		}
		if cd.newCalls.Load() != wantNew {
			t.Errorf("%s: NewWorkerDetect called %d times, want %d", label, cd.newCalls.Load(), wantNew)
		}
		if cd.boundCalls.Load() == 0 {
			t.Errorf("%s: no detection went through the bound worker function", label)
		}
		if cd.directCalls.Load() != 0 {
			t.Errorf("%s: %d detections bypassed the worker scratch path", label, cd.directCalls.Load())
		}
	}

	cd := &countingWorkerDetector{}
	rep, err := SimulateOpts(context.Background(), u, xs, cd, SimOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// One bound detector per pool worker, clamped to the batch count.
	wantDets := int64((len(u.Faults) + 62) / 63)
	if wantDets > 2 {
		wantDets = 2
	}
	check("parallel", cd, rep, wantDets)

	cd = &countingWorkerDetector{}
	ser, err := SerialSimulate(u, xs, cd)
	if err != nil {
		t.Fatal(err)
	}
	check("serial", cd, ser, 1)
}

func TestWorkerDetectorSetupErrorPropagates(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, true)
	xs := sineRecord(64, 28, 5)
	cd := &countingWorkerDetector{newErr: errors.New("scratch build failed")}
	if _, err := Simulate(context.Background(), u, xs, cd); err == nil || !strings.Contains(err.Error(), "scratch build failed") {
		t.Errorf("Simulate swallowed the setup error: %v", err)
	}
	if _, err := SerialSimulate(u, xs, cd); err == nil || !strings.Contains(err.Error(), "scratch build failed") {
		t.Errorf("SerialSimulate swallowed the setup error: %v", err)
	}
	if cd.boundCalls.Load() != 0 || cd.directCalls.Load() != 0 {
		t.Error("detection ran despite the setup failure")
	}
}

func TestSimulateValidation(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, true)
	if _, err := Simulate(context.Background(), u, nil, ExactDetector{}); err == nil {
		t.Error("empty record accepted")
	}
	if _, err := Simulate(context.Background(), u, []int64{1}, nil); err == nil {
		t.Error("nil detector accepted")
	}
	if _, err := SerialSimulate(u, nil, ExactDetector{}); err == nil {
		t.Error("serial empty record accepted")
	}
	if _, err := SerialSimulate(u, []int64{1}, nil); err == nil {
		t.Error("serial nil detector accepted")
	}
}

func TestRecordsCapturesFaultyOutputs(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, false)
	xs := sineRecord(32, 20, 3)
	// Pick an output-bus LSB SA1 fault — easy to predict.
	f := netlist.Fault{Net: fir.OutBus[0], Stuck: netlist.StuckAt1}
	good, faulty, err := Records(u, xs, []netlist.Fault{f})
	if err != nil {
		t.Fatal(err)
	}
	if len(faulty) != 1 {
		t.Fatalf("faulty records = %d", len(faulty))
	}
	ref := fir.ReferencePeriodic(xs)
	for i := range good {
		if good[i] != ref[i] {
			t.Fatalf("good record wrong at %d", i)
		}
		if faulty[0][i] != ref[i]|1 {
			t.Fatalf("faulty record at %d: %d, want %d", i, faulty[0][i], ref[i]|1)
		}
	}
}

func TestRecordsLimit(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, false)
	many := make([]netlist.Fault, 64)
	if _, _, err := Records(u, []int64{1}, many); err == nil {
		t.Error("64 faults accepted in one Records pass")
	}
}

func TestTapAttribution(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, false)
	xs := sineRecord(32, 25, 3)
	rep, err := Simulate(context.Background(), u, xs, ExactDetector{})
	if err != nil {
		t.Fatal(err)
	}
	tapSeen := map[int]bool{}
	for _, r := range rep.Results {
		tapSeen[r.Tap] = true
	}
	for tap := 0; tap < fir.Taps(); tap++ {
		if !tapSeen[tap] {
			t.Errorf("no fault attributed to tap %d", tap)
		}
	}
	if !tapSeen[-1] {
		t.Error("no fault attributed to the sum tree")
	}
}

func TestLSBConfinement(t *testing.T) {
	results := []Result{
		{MaxAbsDiff: 0},
		{MaxAbsDiff: 3}, // < 2^2
		{MaxAbsDiff: 4}, // not < 2^2
		{MaxAbsDiff: 100},
	}
	if got := LSBConfinement(results, 2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("LSBConfinement = %g, want 0.5", got)
	}
	if got := LSBConfinement(nil, 2); got != 1 {
		t.Errorf("empty confinement = %g", got)
	}
}

func TestTwoToneBeatsSingleToneCoverage(t *testing.T) {
	// The paper's headline qualitative result at small scale: a
	// two-tone stimulus detects at least as many faults as one tone of
	// the same composite amplitude.
	fir, err := digital.NewFIR([]int64{5, -9, 13, -9, 5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUniverse(fir, true)
	n := 128
	one := make([]int64, n)
	two := make([]int64, n)
	for i := range one {
		ph := 2 * math.Pi * float64(i) / float64(n)
		one[i] = int64(math.Round(100 * math.Sin(7*ph)))
		two[i] = int64(math.Round(50*math.Sin(7*ph) + 50*math.Sin(11*ph)))
	}
	rep1, err := Simulate(context.Background(), u, one, ExactDetector{})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Simulate(context.Background(), u, two, ExactDetector{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Coverage()+5 < rep1.Coverage() {
		t.Errorf("two-tone coverage %.1f%% much worse than single %.1f%%",
			rep2.Coverage(), rep1.Coverage())
	}
}

func TestUndetectedResults(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, true)
	// All-zero input: nothing toggles, SA0 faults everywhere are
	// undetectable, so there must be a healthy undetected set.
	xs := make([]int64, 16)
	rep, err := Simulate(context.Background(), u, xs, ExactDetector{})
	if err != nil {
		t.Fatal(err)
	}
	und := rep.UndetectedResults()
	if len(und) == 0 {
		t.Fatal("zero input detected faults?")
	}
	for _, r := range und {
		if r.Detected {
			t.Fatal("UndetectedResults returned a detected fault")
		}
	}
}

func BenchmarkSimulateParallel(b *testing.B) {
	fir, err := digital.NewFIR([]int64{5, -9, 13, -9, 5}, 8)
	if err != nil {
		b.Fatal(err)
	}
	u := NewUniverse(fir, true)
	xs := sineRecord(128, 100, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(context.Background(), u, xs, ExactDetector{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateSerial(b *testing.B) {
	fir, err := digital.NewFIR([]int64{5, -9, 13, -9, 5}, 8)
	if err != nil {
		b.Fatal(err)
	}
	u := NewUniverse(fir, true)
	xs := sineRecord(128, 100, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SerialSimulate(u, xs, ExactDetector{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDetectOnlyMatchesSimulate(t *testing.T) {
	fir, err := digital.NewFIR([]int64{5, -9, 13, -9, 5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUniverse(fir, true)
	xs := sineRecord(96, 100, 7)
	rep, err := Simulate(context.Background(), u, xs, ExactDetector{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := DetectOnly(u, xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast) != len(rep.Results) {
		t.Fatal("length mismatch")
	}
	for i := range fast {
		if fast[i] != rep.Results[i].Detected {
			t.Fatalf("fault %v: fast %v vs full %v", rep.Results[i].Fault, fast[i], rep.Results[i].Detected)
		}
	}
}

func TestDetectOnlyValidation(t *testing.T) {
	fir := smallFIR(t)
	u := NewUniverse(fir, true)
	if _, err := DetectOnly(u, nil); err == nil {
		t.Error("empty record accepted")
	}
}
