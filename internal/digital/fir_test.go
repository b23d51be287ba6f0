package digital

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mstx/internal/dsp"
	"mstx/internal/netlist"
)

func TestNewFIRValidation(t *testing.T) {
	if _, err := NewFIR(nil, 8); err == nil {
		t.Error("empty coefficients accepted")
	}
	if _, err := NewFIR([]int64{1}, 1); err == nil {
		t.Error("width 1 accepted")
	}
	if _, err := NewFIR([]int64{1}, 40); err == nil {
		t.Error("width 40 accepted")
	}
}

func TestFIRMatchesReference(t *testing.T) {
	coeffs := []int64{3, -5, 7, 11, -2}
	fir, err := NewFIR(coeffs, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(30))
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(rng.Intn(256) - 128)
	}
	sim := NewFIRSim(fir)
	got, err := sim.Run(xs)
	if err != nil {
		t.Fatal(err)
	}
	want := fir.Reference(xs)
	for i := range xs {
		if got[i] != want[i] {
			t.Fatalf("sample %d: gate-level %d != reference %d", i, got[i], want[i])
		}
	}
}

func TestFIRGateLevelEqualsReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		taps := 1 + rng.Intn(6)
		coeffs := make([]int64, taps)
		for i := range coeffs {
			coeffs[i] = int64(rng.Intn(31) - 15)
		}
		fir, err := NewFIR(coeffs, 6)
		if err != nil {
			return false
		}
		sim := NewFIRSim(fir)
		xs := make([]int64, 30)
		for i := range xs {
			xs[i] = int64(rng.Intn(64) - 32)
		}
		got, err := sim.Run(xs)
		if err != nil {
			return false
		}
		want := fir.Reference(xs)
		for i := range xs {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFIRZeroCoefficient(t *testing.T) {
	fir, err := NewFIR([]int64{0, 5, 0}, 6)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewFIRSim(fir)
	got, err := sim.Run([]int64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	want := fir.Reference([]int64{10, 20, 30})
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sample %d: %d != %d", i, got[i], want[i])
		}
	}
}

func TestFIRInputSaturation(t *testing.T) {
	fir, err := NewFIR([]int64{1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewFIRSim(fir)
	y, err := sim.StepValue(1000) // saturates to 127
	if err != nil {
		t.Fatal(err)
	}
	if y != 127 {
		t.Fatalf("saturated output = %d, want 127", y)
	}
}

func TestFIRReset(t *testing.T) {
	fir, err := NewFIR([]int64{1, 1, 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewFIRSim(fir)
	if _, err := sim.Run([]int64{100, 100, 100}); err != nil {
		t.Fatal(err)
	}
	sim.Reset()
	y, err := sim.StepValue(0)
	if err != nil {
		t.Fatal(err)
	}
	if y != 0 {
		t.Fatalf("output after Reset = %d, want 0", y)
	}
}

func TestFIRFaultPerturbsOnlyItsLane(t *testing.T) {
	coeffs := []int64{2, -3, 4}
	fir, err := NewFIR(coeffs, 6)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewFIRSim(fir)
	// Stuck-at-1 on the LSB of the output in lane 5.
	if err := sim.InjectFault(netlist.Fault{Net: fir.OutBus[0], Stuck: netlist.StuckAt1}, 1<<5); err != nil {
		t.Fatal(err)
	}
	xs := []int64{8, -4, 2, 6, -6}
	lanes, err := sim.RunLanes(xs, 8)
	if err != nil {
		t.Fatal(err)
	}
	ref := fir.Reference(xs)
	for i := range xs {
		if lanes[0][i] != ref[i] {
			t.Fatalf("good lane wrong at %d", i)
		}
		if lanes[5][i] != ref[i]|1 {
			t.Fatalf("fault lane %d: got %d, want %d", i, lanes[5][i], ref[i]|1)
		}
		if lanes[3][i] != ref[i] {
			t.Fatalf("unrelated lane perturbed at %d", i)
		}
	}
}

func TestFIRRunLanesValidation(t *testing.T) {
	fir, _ := NewFIR([]int64{1}, 4)
	sim := NewFIRSim(fir)
	if _, err := sim.RunLanes([]int64{1}, 0); err == nil {
		t.Error("lanes=0 accepted")
	}
	if _, err := sim.RunLanes([]int64{1}, 65); err == nil {
		t.Error("lanes=65 accepted")
	}
}

func TestTapOfNet(t *testing.T) {
	fir, err := NewFIR([]int64{1, 2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, bus := range fir.TapBuses {
		if got := fir.TapOfNet(bus[0]); got != i {
			t.Errorf("TapOfNet(tap %d input) = %d", i, got)
		}
	}
	// The final output bus sign bit lives in the shared sum tree.
	if got := fir.TapOfNet(fir.OutBus[len(fir.OutBus)-1]); got != -1 {
		t.Errorf("sum-tree net attributed to tap %d", got)
	}
}

func TestClearFaultsOnFIRSim(t *testing.T) {
	fir, _ := NewFIR([]int64{1}, 4)
	sim := NewFIRSim(fir)
	if err := sim.InjectFault(netlist.Fault{Net: fir.OutBus[0], Stuck: netlist.StuckAt1}, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	sim.ClearFaults()
	sim.Reset()
	y, err := sim.StepValue(0)
	if err != nil {
		t.Fatal(err)
	}
	if y != 0 {
		t.Fatalf("fault survived ClearFaults: %d", y)
	}
}

func TestDesignLowPassFIR(t *testing.T) {
	h, err := DesignLowPassFIR(31, 0.2, dsp.Hamming)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 31 {
		t.Fatalf("len = %d", len(h))
	}
	// Unity DC gain.
	if g := FrequencyResponseMag(h, 0); math.Abs(g-1) > 1e-12 {
		t.Errorf("DC gain = %g", g)
	}
	// Passband (0.1·fs) near unity, stopband (0.35·fs) well attenuated.
	if g := FrequencyResponseMag(h, 0.1); math.Abs(g-1) > 0.05 {
		t.Errorf("passband gain = %g", g)
	}
	if g := FrequencyResponseMag(h, 0.35); g > 0.01 {
		t.Errorf("stopband gain = %g, want < 0.01", g)
	}
	// Linear phase -> symmetric taps.
	for i := 0; i < len(h)/2; i++ {
		if math.Abs(h[i]-h[len(h)-1-i]) > 1e-12 {
			t.Errorf("asymmetric taps at %d", i)
		}
	}
}

func TestDesignLowPassFIRValidation(t *testing.T) {
	if _, err := DesignLowPassFIR(0, 0.2, dsp.Hamming); err == nil {
		t.Error("0 taps accepted")
	}
	if _, err := DesignLowPassFIR(5, 0, dsp.Hamming); err == nil {
		t.Error("cutoff 0 accepted")
	}
	if _, err := DesignLowPassFIR(5, 0.5, dsp.Hamming); err == nil {
		t.Error("cutoff 0.5 accepted")
	}
}

func TestQuantizeCoeffs(t *testing.T) {
	ints, scale, err := QuantizeCoeffs([]float64{0.5, -0.25, 0.125}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if scale != 256 {
		t.Errorf("scale = %g", scale)
	}
	want := []int64{128, -64, 32}
	for i := range want {
		if ints[i] != want[i] {
			t.Errorf("ints[%d] = %d, want %d", i, ints[i], want[i])
		}
	}
	if _, _, err := QuantizeCoeffs([]float64{1}, 0); err == nil {
		t.Error("fracBits 0 accepted")
	}
	if _, _, err := QuantizeCoeffs([]float64{1e-9}, 8); err == nil {
		t.Error("all-zero quantization accepted")
	}
}

func TestFilterFloatMatchesIntReference(t *testing.T) {
	coeffs := []float64{1, 2, -1}
	xs := []float64{1, 0, 0, 2, -1}
	got := FilterFloat(coeffs, xs)
	want := []float64{1, 2, -1, 2, 3}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("FilterFloat[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestQuantizeDequantizeRecord(t *testing.T) {
	xs := []float64{0, 0.5, -0.5, 0.999, -1, 2, -2}
	q := QuantizeRecord(xs, 8)
	if q[0] != 0 || q[1] != 64 || q[2] != -64 {
		t.Fatalf("quantized: %v", q)
	}
	if q[5] != 127 || q[6] != -128 {
		t.Fatalf("saturation: %v", q)
	}
	d := DequantizeRecord(q, 8)
	for i := 0; i < 3; i++ {
		if math.Abs(d[i]-xs[i]) > 1.0/128 {
			t.Errorf("round trip %d: %g vs %g", i, d[i], xs[i])
		}
	}
}

func TestPaper13TapFilterBuilds(t *testing.T) {
	h, err := DesignLowPassFIR(13, 0.15, dsp.Hamming)
	if err != nil {
		t.Fatal(err)
	}
	ints, _, err := QuantizeCoeffs(h, 9)
	if err != nil {
		t.Fatal(err)
	}
	fir, err := NewFIR(ints, 10)
	if err != nil {
		t.Fatal(err)
	}
	st := fir.Circuit.Stats()
	if st.Gates < 500 {
		t.Errorf("13-tap filter suspiciously small: %v", st)
	}
	// Gate level must still match the reference on a sine record.
	sim := NewFIRSim(fir)
	xs := make([]int64, 64)
	for i := range xs {
		xs[i] = int64(math.Round(400 * math.Sin(2*math.Pi*float64(i)/16)))
	}
	got, err := sim.Run(xs)
	if err != nil {
		t.Fatal(err)
	}
	want := fir.Reference(xs)
	for i := range xs {
		if got[i] != want[i] {
			t.Fatalf("sample %d: %d != %d", i, got[i], want[i])
		}
	}
}

func BenchmarkFIRSimStep13Tap(b *testing.B) {
	h, err := DesignLowPassFIR(13, 0.15, dsp.Hamming)
	if err != nil {
		b.Fatal(err)
	}
	ints, _, err := QuantizeCoeffs(h, 9)
	if err != nil {
		b.Fatal(err)
	}
	fir, err := NewFIR(ints, 10)
	if err != nil {
		b.Fatal(err)
	}
	sim := NewFIRSim(fir)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Step(int64(i % 512)); err != nil {
			b.Fatal(err)
		}
	}
}

// e8FIR builds the E8 default filter: the 13-tap low-pass of
// experiments.BuildDefaultSpec quantized to 8 fraction bits, on 12-bit
// ADC codes, with the low 8 bits of the sum truncated
// (core.DefaultDigitalTestOptions).
func e8FIR(t testing.TB, opts FIROptions) *FIR {
	t.Helper()
	h, err := DesignLowPassFIR(13, 0.18, dsp.Hamming)
	if err != nil {
		t.Fatal(err)
	}
	ints, _, err := QuantizeCoeffs(h, 8)
	if err != nil {
		t.Fatal(err)
	}
	opts.DropLSBs = 8
	fir, err := NewFIRWithOptions(ints, 12, opts)
	if err != nil {
		t.Fatal(err)
	}
	return fir
}

// checkConeMatchesFull injects faults[i] into lane i+1 and requires
// RunLanesCone to reproduce RunLanesPeriodic bit for bit. It returns
// how many fault lanes differ from the good lane anywhere.
func checkConeMatchesFull(t *testing.T, name string, fir *FIR, xs []int64, faults []netlist.Fault) int {
	t.Helper()
	ref := NewFIRSim(fir)
	diff := NewFIRSim(fir)
	for i, f := range faults {
		mask := uint64(1) << uint(i+1)
		if err := ref.InjectFault(f, mask); err != nil {
			t.Fatal(err)
		}
		if err := diff.InjectFault(f, mask); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.RunLanesPeriodic(xs, len(faults)+1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewFIRSim(fir).CaptureBaseline(xs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := diff.RunLanesCone(base, len(faults)+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: cone returned %d lanes, full %d", name, len(got), len(want))
	}
	differing := 0
	for l := range want {
		laneDiffers := false
		for n := range want[l] {
			if got[l][n] != want[l][n] {
				t.Fatalf("%s: lane %d sample %d: cone %d full %d", name, l, n, got[l][n], want[l][n])
			}
			laneDiffers = laneDiffers || want[l][n] != want[0][n]
		}
		if laneDiffers {
			differing++
		}
	}
	return differing
}

// batches splits faults into consecutive batches of at most 63.
func batches(faults []netlist.Fault) [][]netlist.Fault {
	var out [][]netlist.Fault
	for lo := 0; lo < len(faults); lo += 63 {
		out = append(out, faults[lo:min(lo+63, len(faults))])
	}
	return out
}

// outputBusFaults returns both stuck-at faults on every output-bus net,
// the MSB included.
func outputBusFaults(fir *FIR) []netlist.Fault {
	var out []netlist.Fault
	for _, n := range fir.OutBus {
		out = append(out, netlist.Fault{Net: n, Stuck: netlist.StuckAt0}, netlist.Fault{Net: n, Stuck: netlist.StuckAt1})
	}
	return out
}

func TestRunLanesConeMatchesRunLanesPeriodic(t *testing.T) {
	// The differential replay path must reproduce the full periodic
	// run bit for bit: full and partial batches of random faults
	// (primary-input nets with forced side values as well as gate
	// outputs in the cone), faults on every output-bus bit including
	// the sign bit, a batch that changes nothing, and the E8 filter.
	fir, err := NewFIR([]int64{5, -11, 23, -11, 5}, 9)
	if err != nil {
		t.Fatal(err)
	}
	all := netlist.AllFaults(fir.Circuit)
	rng := rand.New(rand.NewSource(31))
	xs := make([]int64, 160)
	for i := range xs {
		xs[i] = int64(rng.Intn(400) - 200)
	}
	randomFaults := func(all []netlist.Fault, n int) []netlist.Fault {
		faults := make([]netlist.Fault, n)
		for i := range faults {
			faults[i] = all[rng.Intn(len(all))]
		}
		return faults
	}
	for trial := 0; trial < 4; trial++ {
		checkConeMatchesFull(t, "random 63", fir, xs, randomFaults(all, 63))
	}
	for _, n := range []int{1, 2, 17, 62, 63} {
		checkConeMatchesFull(t, "partial batch", fir, xs, randomFaults(all, n))
	}
	for _, batch := range batches(outputBusFaults(fir)) {
		if checkConeMatchesFull(t, "output bus", fir, xs, batch) == 0 {
			t.Error("output-bus faults changed no lane")
		}
	}

	// Small non-negative samples never set input bits 4 and up, so
	// stuck-at-0 faults there reach the outputs' cone without changing
	// any lane.
	quiet := make([]int64, 160)
	for i := range quiet {
		quiet[i] = int64(rng.Intn(16))
	}
	var inert []netlist.Fault
	for _, bus := range fir.TapBuses {
		for _, n := range bus[4:] {
			inert = append(inert, netlist.Fault{Net: n, Stuck: netlist.StuckAt0})
		}
	}
	if got := checkConeMatchesFull(t, "no lane differs", fir, quiet, inert); got != 0 {
		t.Errorf("inert batch: %d lanes differ, want 0", got)
	}

	e8 := e8FIR(t, FIROptions{})
	e8All := netlist.AllFaults(e8.Circuit)
	stim := make([]int64, 128)
	for i := range stim {
		ph := 2 * math.Pi * float64(i) / float64(len(stim))
		stim[i] = int64(math.Round(900*math.Sin(9*ph) + 900*math.Sin(13*ph)))
	}
	for _, n := range []int{63, 17, 1} {
		checkConeMatchesFull(t, "E8 random", e8, stim, randomFaults(e8All, n))
	}
	for _, batch := range batches(outputBusFaults(e8)) {
		checkConeMatchesFull(t, "E8 output bus", e8, stim, batch)
	}
}

// scanTapOfNet is the reference TapOfNet: the first tap whose net list
// contains n, by linear scan.
func scanTapOfNet(f *FIR, n netlist.NetID) int {
	for i, cone := range f.TapNets {
		for _, m := range cone {
			if m == n {
				return i
			}
		}
	}
	return -1
}

func TestTapOfNetMatchesScan(t *testing.T) {
	check := func(name string, fir *FIR) {
		t.Helper()
		for n := -1; n <= fir.Circuit.NumNets(); n++ {
			if got, want := fir.TapOfNet(netlist.NetID(n)), scanTapOfNet(fir, netlist.NetID(n)); got != want {
				t.Fatalf("%s: TapOfNet(%d) = %d, scan %d", name, n, got, want)
			}
		}
	}
	check("E8", e8FIR(t, FIROptions{}))
	csd := e8FIR(t, FIROptions{UseCSD: true})
	check("CSD", csd)

	// Nets listed by several taps (and sum-tree nets listed by a tap)
	// resolve to the first tap listing them, as the scan does.
	shared := e8FIR(t, FIROptions{})
	last := len(shared.TapNets) - 1
	shared.TapNets[last] = append(shared.TapNets[last], shared.TapNets[0]...)
	shared.TapNets[last] = append(shared.TapNets[last], shared.OutBus...)
	shared.TapNets[2] = append(shared.TapNets[2], shared.TapNets[1][0], shared.OutBus[0])
	shared.indexTapNets()
	check("shared", shared)
	if got := shared.TapOfNet(shared.OutBus[0]); got != 2 {
		t.Errorf("shared sum-tree net: TapOfNet = %d, want 2 (first listing tap)", got)
	}
}

func TestCaptureBaselineGoodRecord(t *testing.T) {
	// The baseline's Good record is the ordinary periodic response.
	fir, err := NewFIR([]int64{3, 7, 3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]int64, 64)
	for i := range xs {
		xs[i] = int64(40 * math.Sin(2*math.Pi*5*float64(i)/64))
	}
	base, err := NewFIRSim(fir).CaptureBaseline(xs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewFIRSim(fir).RunPeriodic(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if base.Good[i] != want[i] {
			t.Fatalf("sample %d: baseline good %d, RunPeriodic %d", i, base.Good[i], want[i])
		}
	}
	want8 := len(xs) * netlist.BitWords(fir.Circuit.NumNets()) * 8
	if BaselineBytes(fir, len(xs)) != want8 {
		t.Errorf("BaselineBytes = %d, want %d", BaselineBytes(fir, len(xs)), want8)
	}
}
