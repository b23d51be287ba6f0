// Package netlist provides the gate-level hardware substrate used by
// mstx's digital-filter fault simulation: a combinational netlist of
// boolean gates with named nets, a builder API, structural validation,
// a 64-way bit-parallel simulator with single-stuck-at fault injection
// (one word lane per pattern, or one lane per fault), and a
// parallel-pattern single-fault propagator (Propagator, ppsfp.go) that
// re-evaluates, event-driven, only the gates one fault disturbs, over
// 64 fault-free steps per word.
//
// Sequential circuits are supported through D flip-flops (DFF/SetD)
// and the SequentialSimulator; the digital package builds the FIR both
// ways — combinationally, presenting each delayed sample on its own
// primary-input bus, and sequentially with the delay line in-netlist —
// and proves them equivalent.
package netlist

import (
	"fmt"
)

// NetID identifies a net (a wire) in a circuit. Net 0 is valid.
type NetID int

// GateType enumerates the supported boolean gate functions.
type GateType int

// Gate functions. And/Or/Nand/Nor/Xor/Xnor take two or more inputs;
// Not and Buf take exactly one; Const0/Const1 take none.
const (
	And GateType = iota
	Or
	Nand
	Nor
	Xor
	Xnor
	Not
	Buf
	Const0
	Const1
)

// String returns the conventional gate name.
func (g GateType) String() string {
	switch g {
	case And:
		return "AND"
	case Or:
		return "OR"
	case Nand:
		return "NAND"
	case Nor:
		return "NOR"
	case Xor:
		return "XOR"
	case Xnor:
		return "XNOR"
	case Not:
		return "NOT"
	case Buf:
		return "BUF"
	case Const0:
		return "CONST0"
	case Const1:
		return "CONST1"
	default:
		return fmt.Sprintf("GateType(%d)", int(g))
	}
}

// arity returns (min, max) input counts for the gate type; max<0 means
// unbounded.
func (g GateType) arity() (int, int) {
	switch g {
	case Not, Buf:
		return 1, 1
	case Const0, Const1:
		return 0, 0
	case Xor, Xnor:
		return 2, -1
	default:
		return 2, -1
	}
}

// Gate is one logic gate: a function, its input nets, and the single
// net it drives.
type Gate struct {
	Type GateType
	In   []NetID
	Out  NetID
}

// Circuit is a combinational gate-level netlist. Gates are stored in
// the order they were created, which the builder guarantees to be a
// valid topological order (a gate's inputs are always created before
// the gate). Primary inputs are nets driven by no gate.
type Circuit struct {
	// Inputs lists the primary-input nets in declaration order.
	Inputs []NetID
	// Outputs lists the primary-output nets in declaration order.
	Outputs []NetID
	// Gates lists all gates in topological order.
	Gates []Gate
	// FFs lists the flip-flops (see sequential.go); empty for purely
	// combinational circuits.
	FFs []FF

	numNets int
	names   map[NetID]string
	driver  map[NetID]int // net -> index into Gates; absent for PIs
	ffOfQ   map[NetID]int // Q net -> index into FFs
}

// New returns an empty circuit ready for building.
func New() *Circuit {
	return &Circuit{
		names:  make(map[NetID]string),
		driver: make(map[NetID]int),
		ffOfQ:  make(map[NetID]int),
	}
}

// NumNets returns the total number of nets allocated.
func (c *Circuit) NumNets() int { return c.numNets }

// NumGates returns the number of gates in the circuit.
func (c *Circuit) NumGates() int { return len(c.Gates) }

// newNet allocates a fresh net.
func (c *Circuit) newNet() NetID {
	id := NetID(c.numNets)
	c.numNets++
	return id
}

// Input declares a primary input net with the given name.
func (c *Circuit) Input(name string) NetID {
	n := c.newNet()
	c.Inputs = append(c.Inputs, n)
	if name != "" {
		c.names[n] = name
	}
	return n
}

// MarkOutput declares net n to be a primary output, optionally naming
// it. A net may be both an internal net and an output.
func (c *Circuit) MarkOutput(n NetID, name string) {
	c.Outputs = append(c.Outputs, n)
	if name != "" {
		c.names[n] = name
	}
}

// Name returns the declared name of net n, or "n<ID>" when unnamed.
func (c *Circuit) Name(n NetID) string {
	if s, ok := c.names[n]; ok {
		return s
	}
	return fmt.Sprintf("n%d", int(n))
}

// SetName assigns a diagnostic name to net n.
func (c *Circuit) SetName(n NetID, name string) {
	c.names[n] = name
}

// addGate validates and appends a gate, returning its output net.
func (c *Circuit) addGate(t GateType, in ...NetID) NetID {
	lo, hi := t.arity()
	if len(in) < lo || (hi >= 0 && len(in) > hi) {
		panic(fmt.Sprintf("netlist: %v gate with %d inputs", t, len(in)))
	}
	for _, n := range in {
		if int(n) < 0 || int(n) >= c.numNets {
			panic(fmt.Sprintf("netlist: %v gate input references unknown net %d", t, int(n)))
		}
	}
	out := c.newNet()
	c.Gates = append(c.Gates, Gate{Type: t, In: append([]NetID(nil), in...), Out: out})
	c.driver[out] = len(c.Gates) - 1
	return out
}

// And adds an AND gate over the given nets.
func (c *Circuit) And(in ...NetID) NetID { return c.addGate(And, in...) }

// Or adds an OR gate over the given nets.
func (c *Circuit) Or(in ...NetID) NetID { return c.addGate(Or, in...) }

// Nand adds a NAND gate over the given nets.
func (c *Circuit) Nand(in ...NetID) NetID { return c.addGate(Nand, in...) }

// Nor adds a NOR gate over the given nets.
func (c *Circuit) Nor(in ...NetID) NetID { return c.addGate(Nor, in...) }

// Xor adds an XOR (odd parity) gate over the given nets.
func (c *Circuit) Xor(in ...NetID) NetID { return c.addGate(Xor, in...) }

// Xnor adds an XNOR (even parity) gate over the given nets.
func (c *Circuit) Xnor(in ...NetID) NetID { return c.addGate(Xnor, in...) }

// Not adds an inverter.
func (c *Circuit) Not(in NetID) NetID { return c.addGate(Not, in) }

// Buf adds a buffer (identity). Buffers give fanout stems distinct
// fault sites when a builder wants them.
func (c *Circuit) Buf(in NetID) NetID { return c.addGate(Buf, in) }

// Const adds a constant-0 or constant-1 driver.
func (c *Circuit) Const(v bool) NetID {
	if v {
		return c.addGate(Const1)
	}
	return c.addGate(Const0)
}

// Mux adds a 2:1 multiplexer: out = sel ? a : b, built from basic
// gates (3 gates + inverter).
func (c *Circuit) Mux(sel, a, b NetID) NetID {
	ns := c.Not(sel)
	t1 := c.And(sel, a)
	t2 := c.And(ns, b)
	return c.Or(t1, t2)
}

// HalfAdder adds a half adder; returns (sum, carry).
func (c *Circuit) HalfAdder(a, b NetID) (sum, carry NetID) {
	return c.Xor(a, b), c.And(a, b)
}

// FullAdder adds a full adder; returns (sum, carry).
func (c *Circuit) FullAdder(a, b, cin NetID) (sum, carry NetID) {
	s1 := c.Xor(a, b)
	sum = c.Xor(s1, cin)
	c1 := c.And(a, b)
	c2 := c.And(s1, cin)
	carry = c.Or(c1, c2)
	return sum, carry
}

// Driver returns the index of the gate driving net n and true, or
// (0, false) when n is a primary input or constant-less net.
func (c *Circuit) Driver(n NetID) (int, bool) {
	g, ok := c.driver[n]
	return g, ok
}

// Validate checks structural sanity: every gate input is driven by an
// earlier gate or is a primary input, every output net exists, and no
// net has two drivers. The builder maintains these invariants; this
// re-checks circuits that were assembled or mutated by hand.
func (c *Circuit) Validate() error {
	isPI := make(map[NetID]bool, len(c.Inputs))
	for _, n := range c.Inputs {
		if isPI[n] {
			return fmt.Errorf("netlist: duplicate primary input %d", int(n))
		}
		isPI[n] = true
	}
	// Flip-flop outputs behave like primary inputs within a cycle.
	for _, ff := range c.FFs {
		if isPI[ff.Q] {
			return fmt.Errorf("netlist: flip-flop Q %d collides with an input", int(ff.Q))
		}
		isPI[ff.Q] = true
	}
	driven := make(map[NetID]bool, len(c.Gates))
	for gi, g := range c.Gates {
		lo, hi := g.Type.arity()
		if len(g.In) < lo || (hi >= 0 && len(g.In) > hi) {
			return fmt.Errorf("netlist: gate %d (%v) has %d inputs", gi, g.Type, len(g.In))
		}
		for _, in := range g.In {
			if int(in) < 0 || int(in) >= c.numNets {
				return fmt.Errorf("netlist: gate %d input net %d out of range", gi, int(in))
			}
			if !isPI[in] && !driven[in] {
				return fmt.Errorf("netlist: gate %d input net %d used before it is driven (not topological)", gi, int(in))
			}
		}
		if int(g.Out) < 0 || int(g.Out) >= c.numNets {
			return fmt.Errorf("netlist: gate %d output net %d out of range", gi, int(g.Out))
		}
		if driven[g.Out] || isPI[g.Out] {
			return fmt.Errorf("netlist: net %d has multiple drivers", int(g.Out))
		}
		driven[g.Out] = true
	}
	for _, n := range c.Outputs {
		if int(n) < 0 || int(n) >= c.numNets {
			return fmt.Errorf("netlist: output net %d out of range", int(n))
		}
		if !isPI[n] && !driven[n] {
			return fmt.Errorf("netlist: output net %d is undriven", int(n))
		}
	}
	return nil
}

// Levels returns, for each gate, its logic depth (primary inputs are
// depth 0; a gate's level is 1 + max level of its input drivers).
func (c *Circuit) Levels() []int {
	netLevel := make([]int, c.numNets)
	levels := make([]int, len(c.Gates))
	for gi, g := range c.Gates {
		lvl := 0
		for _, in := range g.In {
			if netLevel[in] > lvl {
				lvl = netLevel[in]
			}
		}
		levels[gi] = lvl + 1
		netLevel[g.Out] = lvl + 1
	}
	return levels
}

// Depth returns the maximum logic depth of the circuit.
func (c *Circuit) Depth() int {
	max := 0
	for _, l := range c.Levels() {
		if l > max {
			max = l
		}
	}
	return max
}

// FanoutCounts returns how many gate inputs each net feeds (primary
// outputs are not counted).
func (c *Circuit) FanoutCounts() []int {
	fo := make([]int, c.numNets)
	for _, g := range c.Gates {
		for _, in := range g.In {
			fo[in]++
		}
	}
	return fo
}

// Stats summarizes the circuit for reports.
type Stats struct {
	Inputs  int
	Outputs int
	Gates   int
	Nets    int
	Depth   int
}

// Stats returns circuit size statistics.
func (c *Circuit) Stats() Stats {
	return Stats{
		Inputs:  len(c.Inputs),
		Outputs: len(c.Outputs),
		Gates:   len(c.Gates),
		Nets:    c.numNets,
		Depth:   c.Depth(),
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("%d PIs, %d POs, %d gates, %d nets, depth %d",
		s.Inputs, s.Outputs, s.Gates, s.Nets, s.Depth)
}
