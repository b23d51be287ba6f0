package atpg

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"mstx/internal/campaign"
	"mstx/internal/digital"
	"mstx/internal/fault"
	"mstx/internal/netlist"
)

// simulateFaultDetects checks by exhaustive/direct simulation that the
// pattern distinguishes good from faulty machines on some PO.
func simulateFaultDetects(t *testing.T, c *netlist.Circuit, f netlist.Fault, pattern []bool) bool {
	t.Helper()
	sim := netlist.NewSimulator(c)
	words := make([]uint64, len(pattern))
	for i, b := range pattern {
		if b {
			words[i] = 1 // lane 0 good
		}
	}
	goodOut, err := sim.Run(words)
	if err != nil {
		t.Fatal(err)
	}
	fsim := netlist.NewSimulator(c)
	if err := fsim.InjectFault(f, 1); err != nil {
		t.Fatal(err)
	}
	badOut, err := fsim.Run(words)
	if err != nil {
		t.Fatal(err)
	}
	for i := range goodOut {
		if goodOut[i]&1 != badOut[i]&1 {
			return true
		}
	}
	return false
}

func TestTernaryNot(t *testing.T) {
	if Zero.not() != One || One.not() != Zero || X.not() != X {
		t.Fatal("ternary not wrong")
	}
	if Zero.String() != "0" || One.String() != "1" || X.String() != "X" {
		t.Fatal("ternary strings wrong")
	}
}

func TestStatusString(t *testing.T) {
	if Testable.String() != "testable" || Untestable.String() != "untestable" ||
		Aborted.String() != "aborted" {
		t.Fatal("status strings wrong")
	}
}

func TestGenerateOnANDGate(t *testing.T) {
	c := netlist.New()
	a := c.Input("a")
	b := c.Input("b")
	y := c.And(a, b)
	c.MarkOutput(y, "y")
	g := NewGenerator(c)

	// Output SA0 needs a=b=1.
	r, err := g.Generate(netlist.Fault{Net: y, Stuck: netlist.StuckAt0})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Testable {
		t.Fatalf("SA0 on AND output: %v", r.Status)
	}
	if !r.Pattern[0] || !r.Pattern[1] {
		t.Fatalf("pattern %v, want 11", r.Pattern)
	}
	// Input a SA1 needs a=0, b=1.
	r, err = g.Generate(netlist.Fault{Net: a, Stuck: netlist.StuckAt1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Testable || r.Pattern[0] || !r.Pattern[1] {
		t.Fatalf("a SA1: %v pattern %v", r.Status, r.Pattern)
	}
}

func TestGenerateUntestableRedundantFault(t *testing.T) {
	// y = a AND NOT(a): constant 0, so SA0 on y is redundant.
	c := netlist.New()
	a := c.Input("a")
	na := c.Not(a)
	y := c.And(a, na)
	c.MarkOutput(y, "y")
	g := NewGenerator(c)
	r, err := g.Generate(netlist.Fault{Net: y, Stuck: netlist.StuckAt0})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Untestable {
		t.Fatalf("redundant fault classified %v", r.Status)
	}
	// SA1 on y IS testable (any a works: good 0, faulty 1).
	r, err = g.Generate(netlist.Fault{Net: y, Stuck: netlist.StuckAt1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Testable {
		t.Fatalf("SA1 on constant-0 net: %v", r.Status)
	}
	if !simulateFaultDetects(t, c, netlist.Fault{Net: y, Stuck: netlist.StuckAt1}, r.Pattern) {
		t.Fatal("generated pattern does not detect")
	}
}

func TestGenerateUnknownNet(t *testing.T) {
	c := netlist.New()
	c.MarkOutput(c.Input("a"), "y")
	g := NewGenerator(c)
	if _, err := g.Generate(netlist.Fault{Net: 99}); err == nil {
		t.Fatal("unknown net accepted")
	}
}

func TestGenerateXorChain(t *testing.T) {
	// XOR trees exercise the non-controlling fallback path.
	c := netlist.New()
	ins := []netlist.NetID{c.Input("a"), c.Input("b"), c.Input("c"), c.Input("d")}
	x1 := c.Xor(ins[0], ins[1])
	x2 := c.Xor(ins[2], ins[3])
	y := c.Xor(x1, x2)
	c.MarkOutput(y, "y")
	g := NewGenerator(c)
	for _, f := range netlist.AllFaults(c) {
		r, err := g.Generate(f)
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != Testable {
			t.Fatalf("fault %v on XOR tree: %v", f, r.Status)
		}
		if !simulateFaultDetects(t, c, f, r.Pattern) {
			t.Fatalf("pattern for %v does not detect", f)
		}
	}
}

// exhaustivelyTestable brute-forces whether any input pattern detects
// the fault (for small circuits).
func exhaustivelyTestable(t *testing.T, c *netlist.Circuit, f netlist.Fault) bool {
	t.Helper()
	nIn := len(c.Inputs)
	for v := 0; v < 1<<uint(nIn); v++ {
		pat := make([]bool, nIn)
		for i := range pat {
			pat[i] = v>>uint(i)&1 == 1
		}
		if simulateFaultDetects(t, c, f, pat) {
			return true
		}
	}
	return false
}

func TestGenerateMatchesExhaustiveOnRandomCircuits(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := netlist.New()
		nets := []netlist.NetID{c.Input("a"), c.Input("b"), c.Input("c"), c.Input("d")}
		for i := 0; i < 12; i++ {
			x := nets[rng.Intn(len(nets))]
			y := nets[rng.Intn(len(nets))]
			var n netlist.NetID
			switch rng.Intn(7) {
			case 0:
				n = c.And(x, y)
			case 1:
				n = c.Or(x, y)
			case 2:
				n = c.Nand(x, y)
			case 3:
				n = c.Nor(x, y)
			case 4:
				n = c.Xor(x, y)
			case 5:
				n = c.Not(x)
			default:
				n = c.Buf(x)
			}
			nets = append(nets, n)
		}
		c.MarkOutput(nets[len(nets)-1], "y")
		g := NewGenerator(c)
		faults := netlist.AllFaults(c)
		// Check a sample of faults against the brute-force oracle.
		for i := 0; i < len(faults); i += 1 + len(faults)/10 {
			fl := faults[i]
			r, err := g.Generate(fl)
			if err != nil {
				return false
			}
			want := exhaustivelyTestable(t, c, fl)
			switch r.Status {
			case Testable:
				if !want || !simulateFaultDetects(t, c, fl, r.Pattern) {
					t.Logf("seed %d: fault %v claimed testable incorrectly", seed, fl)
					return false
				}
			case Untestable:
				if want {
					t.Logf("seed %d: fault %v claimed untestable but a pattern exists", seed, fl)
					return false
				}
			case Aborted:
				// Acceptable (rare at this size).
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyAndTopOffOnFIR(t *testing.T) {
	if testing.Short() {
		t.Skip("ATPG top-off skipped in -short")
	}
	fir, err := digital.NewFIR([]int64{5, -9, 13}, 6)
	if err != nil {
		t.Fatal(err)
	}
	u := fault.NewUniverse(fir, true)
	// Functional campaign first.
	xs := make([]int64, 64)
	for i := range xs {
		xs[i] = int64((i%13)*4 - 24)
	}
	eng, err := campaign.New(u, fault.ExactDetector{}, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := eng.Run(context.Background(), xs)
	if err != nil {
		t.Fatal(err)
	}
	missed := rep.Undetected()
	sum, err := Classify(fir.Circuit, missed, 2000)
	if err != nil {
		t.Fatal(err)
	}
	tb, ut, ab := sum.Counts()
	if tb+ut+ab != len(missed) {
		t.Fatalf("classification lost faults: %d+%d+%d != %d", tb, ut, ab, len(missed))
	}
	if ab > len(missed)/4 {
		t.Errorf("too many aborts: %d of %d", ab, len(missed))
	}
	// Every testable pattern must actually detect via the sample burst.
	for _, r := range sum.Testable {
		burst, err := PatternToSamples(fir, r.Pattern)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := VerifyPattern(fir, r.Fault, burst)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("burst for %v does not detect", r.Fault)
		}
	}
	if len(sum.Testable) == 0 {
		t.Error("functional residue contained no ATPG-testable faults (unexpected)")
	}
	if !containsAll(sum.String(), "testable", "redundant") {
		t.Errorf("Summary.String = %q", sum.String())
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func TestPatternToSamplesValidation(t *testing.T) {
	fir, err := digital.NewFIR([]int64{1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PatternToSamples(fir, make([]bool, 3)); err == nil {
		t.Fatal("wrong pattern length accepted")
	}
	// Negative word reconstruction: pattern for x0 = -1 (all ones).
	pat := make([]bool, 8)
	for i := 0; i < 4; i++ {
		pat[i] = true // tap 0 bits
	}
	burst, err := PatternToSamples(fir, pat)
	if err != nil {
		t.Fatal(err)
	}
	// delay[0] must end up -1: burst feeds oldest first, so the last
	// sample is x[n] = tap 0 = -1.
	if burst[len(burst)-1] != -1 {
		t.Fatalf("burst = %v, want last sample -1", burst)
	}
	if burst[0] != 0 {
		t.Fatalf("burst = %v, want first sample 0 (tap 1)", burst)
	}
}
