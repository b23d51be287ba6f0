package netlist

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// buildXor2 builds a 2-input XOR from NANDs for structural tests.
func buildXor2() (*Circuit, NetID, NetID, NetID) {
	c := New()
	a := c.Input("a")
	b := c.Input("b")
	n1 := c.Nand(a, b)
	n2 := c.Nand(a, n1)
	n3 := c.Nand(b, n1)
	out := c.Nand(n2, n3)
	c.MarkOutput(out, "y")
	return c, a, b, out
}

func TestBuilderTopologyAndValidate(t *testing.T) {
	c, _, _, _ := buildXor2()
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	st := c.Stats()
	if st.Inputs != 2 || st.Outputs != 1 || st.Gates != 4 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.Depth != 3 {
		t.Fatalf("Depth = %d, want 3", st.Depth)
	}
	if !strings.Contains(st.String(), "4 gates") {
		t.Errorf("Stats.String = %q", st.String())
	}
}

func TestGateTruthTables(t *testing.T) {
	c := New()
	a := c.Input("a")
	b := c.Input("b")
	and := c.And(a, b)
	or := c.Or(a, b)
	nand := c.Nand(a, b)
	nor := c.Nor(a, b)
	xor := c.Xor(a, b)
	xnor := c.Xnor(a, b)
	not := c.Not(a)
	buf := c.Buf(a)
	c0 := c.Const(false)
	c1 := c.Const(true)
	for _, n := range []NetID{and, or, nand, nor, xor, xnor, not, buf, c0, c1} {
		c.MarkOutput(n, "")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(c)
	cases := []struct {
		a, b bool
		want []bool // and or nand nor xor xnor not buf c0 c1
	}{
		{false, false, []bool{false, false, true, true, false, true, true, false, false, true}},
		{false, true, []bool{false, true, true, false, true, false, true, false, false, true}},
		{true, false, []bool{false, true, true, false, true, false, false, true, false, true}},
		{true, true, []bool{true, true, false, false, false, true, false, true, false, true}},
	}
	for _, tc := range cases {
		got, err := sim.RunBool([]bool{tc.a, tc.b})
		if err != nil {
			t.Fatal(err)
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("a=%v b=%v output %d = %v, want %v", tc.a, tc.b, i, got[i], tc.want[i])
			}
		}
	}
}

func TestWideGates(t *testing.T) {
	c := New()
	ins := []NetID{c.Input("a"), c.Input("b"), c.Input("c"), c.Input("d")}
	c.MarkOutput(c.And(ins...), "and4")
	c.MarkOutput(c.Or(ins...), "or4")
	c.MarkOutput(c.Xor(ins...), "xor4") // odd parity
	sim := NewSimulator(c)
	for v := 0; v < 16; v++ {
		in := make([]bool, 4)
		ones := 0
		for i := range in {
			in[i] = v>>i&1 == 1
			if in[i] {
				ones++
			}
		}
		got, err := sim.RunBool(in)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != (ones == 4) {
			t.Errorf("AND4(%04b) = %v", v, got[0])
		}
		if got[1] != (ones > 0) {
			t.Errorf("OR4(%04b) = %v", v, got[1])
		}
		if got[2] != (ones%2 == 1) {
			t.Errorf("XOR4(%04b) = %v", v, got[2])
		}
	}
}

func TestMux(t *testing.T) {
	c := New()
	sel := c.Input("sel")
	a := c.Input("a")
	b := c.Input("b")
	c.MarkOutput(c.Mux(sel, a, b), "y")
	sim := NewSimulator(c)
	for _, tc := range []struct{ sel, a, b, want bool }{
		{false, true, false, false},
		{false, false, true, true},
		{true, true, false, true},
		{true, false, true, false},
	} {
		got, err := sim.RunBool([]bool{tc.sel, tc.a, tc.b})
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != tc.want {
			t.Errorf("Mux(%v,%v,%v) = %v, want %v", tc.sel, tc.a, tc.b, got[0], tc.want)
		}
	}
}

func TestAdders(t *testing.T) {
	c := New()
	a := c.Input("a")
	b := c.Input("b")
	cin := c.Input("cin")
	hs, hc := c.HalfAdder(a, b)
	fs, fc := c.FullAdder(a, b, cin)
	for _, n := range []NetID{hs, hc, fs, fc} {
		c.MarkOutput(n, "")
	}
	sim := NewSimulator(c)
	for v := 0; v < 8; v++ {
		ai, bi, ci := v&1, v>>1&1, v>>2&1
		got, err := sim.RunBool([]bool{ai == 1, bi == 1, ci == 1})
		if err != nil {
			t.Fatal(err)
		}
		hsum := ai + bi
		if got[0] != (hsum%2 == 1) || got[1] != (hsum == 2) {
			t.Errorf("half adder a=%d b=%d: sum=%v carry=%v", ai, bi, got[0], got[1])
		}
		fsum := ai + bi + ci
		if got[2] != (fsum%2 == 1) || got[3] != (fsum >= 2) {
			t.Errorf("full adder a=%d b=%d c=%d: sum=%v carry=%v", ai, bi, ci, got[2], got[3])
		}
	}
}

func TestBuilderPanics(t *testing.T) {
	c := New()
	a := c.Input("a")
	for name, f := range map[string]func(){
		"not-2in":      func() { c.addGate(Not, a, a) },
		"and-1in":      func() { c.And(a) },
		"unknown-net":  func() { c.And(a, NetID(999)) },
		"negative-net": func() { c.And(a, NetID(-1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestValidateCatchesHandMadeErrors(t *testing.T) {
	// Multiple drivers.
	c := New()
	a := c.Input("a")
	b := c.Input("b")
	g := c.And(a, b)
	c.Gates = append(c.Gates, Gate{Type: Or, In: []NetID{a, b}, Out: g})
	if err := c.Validate(); err == nil {
		t.Error("multiple drivers accepted")
	}
	// Undriven output.
	c2 := New()
	c2.Input("a")
	c2.Outputs = append(c2.Outputs, NetID(500))
	if err := c2.Validate(); err == nil {
		t.Error("out-of-range output accepted")
	}
	// Non-topological order.
	c3 := New()
	x := c3.Input("x")
	g1 := c3.And(x, x)
	_ = g1
	c3.Gates[0].In[1] = c3.Gates[0].Out // self-loop
	if err := c3.Validate(); err == nil {
		t.Error("self-loop accepted")
	}
	// Duplicate PI.
	c4 := New()
	p := c4.Input("p")
	c4.Inputs = append(c4.Inputs, p)
	if err := c4.Validate(); err == nil {
		t.Error("duplicate PI accepted")
	}
	// Bad arity snuck in by hand.
	c5 := New()
	q := c5.Input("q")
	out := c5.newNet()
	c5.Gates = append(c5.Gates, Gate{Type: And, In: []NetID{q}, Out: out})
	if err := c5.Validate(); err == nil {
		t.Error("1-input AND accepted")
	}
}

// TestValidateRejectsUnknownGateType hands Validate gates of types
// outside And…Const1 with an arity that would suit a two-input gate:
// each must be refused, since no simulator evaluates them, and
// NewSimulator must panic on such a circuit rather than simulate it.
func TestValidateRejectsUnknownGateType(t *testing.T) {
	for _, typ := range []GateType{GateType(99), Const1 + 1, And - 1} {
		c := New()
		a, b := c.Input("a"), c.Input("b")
		out := c.newNet()
		c.Gates = append(c.Gates, Gate{Type: typ, In: []NetID{a, b}, Out: out})
		c.MarkOutput(out, "y")
		if err := c.Validate(); err == nil {
			t.Errorf("gate type %v accepted", typ)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSimulator built a simulator for gate type %v", typ)
				}
			}()
			NewSimulator(c)
		}()
	}
}

func TestNames(t *testing.T) {
	c := New()
	a := c.Input("alpha")
	if c.Name(a) != "alpha" {
		t.Errorf("Name = %q", c.Name(a))
	}
	n := c.Not(a)
	if c.Name(n) != "n1" {
		t.Errorf("unnamed Name = %q", c.Name(n))
	}
	c.SetName(n, "inv")
	if c.Name(n) != "inv" {
		t.Errorf("after SetName = %q", c.Name(n))
	}
}

func TestDriver(t *testing.T) {
	c, a, _, out := buildXor2()
	if _, ok := c.Driver(a); ok {
		t.Error("PI reported as driven")
	}
	gi, ok := c.Driver(out)
	if !ok || c.Gates[gi].Out != out {
		t.Errorf("Driver(out) = %d, %v", gi, ok)
	}
}

func TestLevelsAndFanout(t *testing.T) {
	c, a, b, _ := buildXor2()
	levels := c.Levels()
	if levels[0] != 1 || levels[3] != 3 {
		t.Errorf("levels = %v", levels)
	}
	fo := c.FanoutCounts()
	if fo[a] != 2 || fo[b] != 2 {
		t.Errorf("PI fanout = %d,%d, want 2,2", fo[a], fo[b])
	}
	// n1 (first NAND output) feeds two gates.
	n1 := c.Gates[0].Out
	if fo[n1] != 2 {
		t.Errorf("n1 fanout = %d, want 2", fo[n1])
	}
}

func TestGateTypeString(t *testing.T) {
	for gt, want := range map[GateType]string{
		And: "AND", Or: "OR", Nand: "NAND", Nor: "NOR",
		Xor: "XOR", Xnor: "XNOR", Not: "NOT", Buf: "BUF",
		Const0: "CONST0", Const1: "CONST1", GateType(77): "GateType(77)",
	} {
		if got := gt.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(gt), got, want)
		}
	}
}

func TestParallelLanesIndependent(t *testing.T) {
	// Each lane of a parallel run must match an independent RunBool.
	c, _, _, _ := buildXor2()
	sim := NewSimulator(c)
	rng := rand.New(rand.NewSource(11))
	var aw, bw uint64
	want := make([]bool, 64)
	for lane := 0; lane < 64; lane++ {
		av, bv := rng.Intn(2) == 1, rng.Intn(2) == 1
		if av {
			aw |= 1 << lane
		}
		if bv {
			bw |= 1 << lane
		}
		want[lane] = av != bv
	}
	out, err := sim.Run([]uint64{aw, bw})
	if err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < 64; lane++ {
		if (out[0]>>lane&1 == 1) != want[lane] {
			t.Fatalf("lane %d mismatch", lane)
		}
	}
}

func TestRunInputCountMismatch(t *testing.T) {
	c, _, _, _ := buildXor2()
	sim := NewSimulator(c)
	if _, err := sim.Run([]uint64{1}); err == nil {
		t.Fatal("wrong input count accepted")
	}
}

func TestFaultInjection(t *testing.T) {
	c, a, b, out := buildXor2()
	sim := NewSimulator(c)
	// SA1 on output in lane 1 only.
	if err := sim.InjectFault(Fault{Net: out, Stuck: StuckAt1}, 1<<1); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run([]uint64{0, 0}) // a=0,b=0 everywhere -> xor=0
	if err != nil {
		t.Fatal(err)
	}
	if res[0]&1 != 0 {
		t.Error("good lane perturbed")
	}
	if res[0]>>1&1 != 1 {
		t.Error("faulty lane not forced")
	}
	// SA0 on input a in lane 2: with a=1,b=0 output becomes 0 there.
	sim.ClearFaults()
	if err := sim.InjectFault(Fault{Net: a, Stuck: StuckAt0}, 1<<2); err != nil {
		t.Fatal(err)
	}
	res, err = sim.Run([]uint64{^uint64(0), 0})
	if err != nil {
		t.Fatal(err)
	}
	if res[0]&1 != 1 {
		t.Error("good lane wrong")
	}
	if res[0]>>2&1 != 0 {
		t.Error("input fault not observed")
	}
	_ = b
}

func TestInjectFaultUnknownNet(t *testing.T) {
	c, _, _, _ := buildXor2()
	sim := NewSimulator(c)
	if err := sim.InjectFault(Fault{Net: 999}, 1); err == nil {
		t.Fatal("unknown net accepted")
	}
}

func TestClearFaultsRestoresGoodMachine(t *testing.T) {
	c, _, _, out := buildXor2()
	sim := NewSimulator(c)
	if err := sim.InjectFault(Fault{Net: out, Stuck: StuckAt1}, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	res, _ := sim.Run([]uint64{0, 0})
	if res[0] != ^uint64(0) {
		t.Fatal("fault not active")
	}
	sim.ClearFaults()
	res, _ = sim.Run([]uint64{0, 0})
	if res[0] != 0 {
		t.Fatal("fault survived ClearFaults")
	}
}

func TestValueInspection(t *testing.T) {
	c, a, _, _ := buildXor2()
	sim := NewSimulator(c)
	if _, err := sim.Run([]uint64{5, 3}); err != nil {
		t.Fatal(err)
	}
	if sim.Value(a) != 5 {
		t.Errorf("Value(a) = %d", sim.Value(a))
	}
	if sim.Circuit() != c {
		t.Error("Circuit() mismatch")
	}
}

func TestAllFaults(t *testing.T) {
	c, _, _, _ := buildXor2()
	faults := AllFaults(c)
	// 2 PIs + 4 gate outputs = 6 nets, 12 faults.
	if len(faults) != 12 {
		t.Fatalf("len(AllFaults) = %d, want 12", len(faults))
	}
	seen := make(map[Fault]bool)
	for _, f := range faults {
		if seen[f] {
			t.Fatalf("duplicate fault %v", f)
		}
		seen[f] = true
	}
}

func TestCollapseFaultsReduces(t *testing.T) {
	c, _, _, _ := buildXor2()
	all := AllFaults(c)
	collapsed := CollapseFaults(c, all)
	if len(collapsed) >= len(all) {
		t.Fatalf("collapse did not reduce: %d -> %d", len(all), len(collapsed))
	}
	// Collapsed set must be a subset of the universe.
	uni := make(map[Fault]bool)
	for _, f := range all {
		uni[f] = true
	}
	for _, f := range collapsed {
		if !uni[f] {
			t.Fatalf("collapsed fault %v not in universe", f)
		}
	}
}

func TestCollapseEquivalenceIsSound(t *testing.T) {
	// For a chain a -> NOT -> BUF -> out, output SA0 collapses onto the
	// chain; detecting the representative must detect the others.
	c := New()
	a := c.Input("a")
	n := c.Not(a)
	bf := c.Buf(n)
	c.MarkOutput(bf, "y")
	all := AllFaults(c)
	collapsed := CollapseFaults(c, all)
	// Universe is 6; equivalences: bf SA0≡n SA0≡a SA1; bf SA1≡n SA1≡a SA0.
	if len(collapsed) != 2 {
		t.Fatalf("collapsed size = %d, want 2", len(collapsed))
	}
}

func TestFaultString(t *testing.T) {
	f := Fault{Net: 3, Stuck: StuckAt1}
	if f.String() != "n3:SA1" {
		t.Errorf("Fault.String = %q", f.String())
	}
	if StuckAt0.String() != "SA0" {
		t.Errorf("StuckAt0.String = %q", StuckAt0.String())
	}
}

func TestSimulatorMatchesBoolOracleProperty(t *testing.T) {
	// Random circuits: parallel lane 0 must equal RunBool.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		nets := []NetID{c.Input("a"), c.Input("b"), c.Input("c")}
		for i := 0; i < 20; i++ {
			x := nets[rng.Intn(len(nets))]
			y := nets[rng.Intn(len(nets))]
			var n NetID
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
				n = c.Xnor(x, y)
			default:
				n = c.Not(x)
			}
			nets = append(nets, n)
		}
		c.MarkOutput(nets[len(nets)-1], "y")
		if err := c.Validate(); err != nil {
			return false
		}
		sim := NewSimulator(c)
		for v := 0; v < 8; v++ {
			in := []bool{v&1 == 1, v>>1&1 == 1, v>>2&1 == 1}
			bw, err := sim.RunBool(in)
			if err != nil {
				return false
			}
			words := make([]uint64, 3)
			for i, b := range in {
				if b {
					words[i] = ^uint64(0)
				}
			}
			pw, err := sim.Run(words)
			if err != nil {
				return false
			}
			wantWord := uint64(0)
			if bw[0] {
				wantWord = ^uint64(0)
			}
			if pw[0] != wantWord {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSimulatorXorTree(b *testing.B) {
	c := New()
	var nets []NetID
	for i := 0; i < 64; i++ {
		nets = append(nets, c.Input(""))
	}
	for len(nets) > 1 {
		var next []NetID
		for i := 0; i+1 < len(nets); i += 2 {
			next = append(next, c.Xor(nets[i], nets[i+1]))
		}
		if len(nets)%2 == 1 {
			next = append(next, nets[len(nets)-1])
		}
		nets = next
	}
	c.MarkOutput(nets[0], "y")
	sim := NewSimulator(c)
	in := make([]uint64, 64)
	rng := rand.New(rand.NewSource(12))
	for i := range in {
		in[i] = rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(in); err != nil {
			b.Fatal(err)
		}
	}
}
