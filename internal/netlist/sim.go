package netlist

import (
	"fmt"
)

// StuckValue is the value a stuck-at fault forces on its net.
type StuckValue uint8

// Stuck-at polarities.
const (
	StuckAt0 StuckValue = 0
	StuckAt1 StuckValue = 1
)

// String returns "SA0" or "SA1".
func (v StuckValue) String() string {
	if v == StuckAt1 {
		return "SA1"
	}
	return "SA0"
}

// Fault is a single stuck-at fault on a net (a stem fault: it affects
// every fanout of the net).
type Fault struct {
	Net   NetID
	Stuck StuckValue
}

// String formats the fault as "net:SA0".
func (f Fault) String() string {
	return fmt.Sprintf("n%d:%s", int(f.Net), f.Stuck)
}

// Simulator evaluates a circuit 64 patterns (or fault lanes) at a
// time. Each net carries a uint64 whose bit b is the net's value in
// lane b. The zero lane is conventionally the fault-free machine when
// fault-parallel simulation is used.
type Simulator struct {
	c      *Circuit
	values []uint64
	// Per-net fault masks for the active fault set. forced0/forced1
	// give the lanes in which the net is forced low/high.
	forced0 []uint64
	forced1 []uint64
	// dirtyNets tracks nets with nonzero masks so Clear is O(active).
	dirtyNets []NetID
	// prog is the compiled instruction stream (see compiled.go); nil
	// when the circuit holds a gate type the compiler does not know,
	// which routes runGates through the interpreting fallback.
	prog *program
}

// NewSimulator returns a simulator for c. The circuit must be valid
// (builder-produced circuits always are).
func NewSimulator(c *Circuit) *Simulator {
	return &Simulator{
		c:       c,
		values:  make([]uint64, c.NumNets()),
		forced0: make([]uint64, c.NumNets()),
		forced1: make([]uint64, c.NumNets()),
		prog:    compileProgram(c),
	}
}

// Circuit returns the simulated circuit.
func (s *Simulator) Circuit() *Circuit { return s.c }

// Compiled reports whether the circuit was lowered to the compiled
// instruction stream (which a Propagator requires as well).
func (s *Simulator) Compiled() bool { return s.prog != nil }

// HasFaults reports whether any fault is injected.
func (s *Simulator) HasFaults() bool { return len(s.dirtyNets) > 0 }

// ClearFaults removes all injected faults.
func (s *Simulator) ClearFaults() {
	for _, n := range s.dirtyNets {
		s.forced0[n] = 0
		s.forced1[n] = 0
		if s.prog != nil {
			s.prog.setForced(n, false)
		}
	}
	s.dirtyNets = s.dirtyNets[:0]
}

// InjectFault forces fault f in the lanes given by laneMask. Multiple
// faults may share lanes (multiple stuck-at modeling) or use disjoint
// lanes (parallel single-fault simulation).
func (s *Simulator) InjectFault(f Fault, laneMask uint64) error {
	if int(f.Net) < 0 || int(f.Net) >= s.c.NumNets() {
		return fmt.Errorf("netlist: fault on unknown net %d", int(f.Net))
	}
	if s.forced0[f.Net] == 0 && s.forced1[f.Net] == 0 {
		s.dirtyNets = append(s.dirtyNets, f.Net)
	}
	if s.prog != nil {
		s.prog.setForced(f.Net, true)
	}
	if f.Stuck == StuckAt0 {
		s.forced0[f.Net] |= laneMask
	} else {
		s.forced1[f.Net] |= laneMask
	}
	return nil
}

// apply imposes the active fault masks of net n on value v.
func (s *Simulator) apply(n NetID, v uint64) uint64 {
	return (v &^ s.forced0[n]) | s.forced1[n]
}

// Run evaluates the circuit for the given primary-input words, one
// word per declared input, and returns one word per declared output.
// Bit b of every word belongs to lane b.
func (s *Simulator) Run(inputs []uint64) ([]uint64, error) {
	if len(inputs) != len(s.c.Inputs) {
		return nil, fmt.Errorf("netlist: got %d input words, circuit has %d inputs",
			len(inputs), len(s.c.Inputs))
	}
	for i, n := range s.c.Inputs {
		s.values[n] = s.apply(n, inputs[i])
	}
	if err := s.runGates(); err != nil {
		return nil, err
	}
	out := make([]uint64, len(s.c.Outputs))
	for i, n := range s.c.Outputs {
		out[i] = s.values[n]
	}
	return out, nil
}

// runGates evaluates the combinational gates in topological order,
// applying fault overrides. The compiled stream is the hot path; the
// Gate-slice interpreter below remains as the fallback for circuits
// the compiler refused (and is the reference the compiled path is
// tested against).
func (s *Simulator) runGates() error {
	if s.prog != nil {
		s.runCompiled()
		return nil
	}
	for _, g := range s.c.Gates {
		var v uint64
		switch g.Type {
		case And, Nand:
			v = ^uint64(0)
			for _, in := range g.In {
				v &= s.values[in]
			}
			if g.Type == Nand {
				v = ^v
			}
		case Or, Nor:
			for _, in := range g.In {
				v |= s.values[in]
			}
			if g.Type == Nor {
				v = ^v
			}
		case Xor, Xnor:
			for _, in := range g.In {
				v ^= s.values[in]
			}
			if g.Type == Xnor {
				v = ^v
			}
		case Not:
			v = ^s.values[g.In[0]]
		case Buf:
			v = s.values[g.In[0]]
		case Const0:
			v = 0
		case Const1:
			v = ^uint64(0)
		default:
			return fmt.Errorf("netlist: unknown gate type %v", g.Type)
		}
		s.values[g.Out] = s.apply(g.Out, v)
	}
	return nil
}

// Value returns the current word on net n after the last Run.
func (s *Simulator) Value(n NetID) uint64 { return s.values[n] }

// Values returns every net's word after the last Run, indexed by net.
// The slice is the simulator's own and the next Run overwrites it.
func (s *Simulator) Values() []uint64 { return s.values }

// RunBool evaluates a single boolean pattern and returns boolean
// outputs. It is a convenience wrapper (lane 0 of a parallel run) used
// as an oracle in tests and by callers that need one pattern.
func (s *Simulator) RunBool(inputs []bool) ([]bool, error) {
	words := make([]uint64, len(inputs))
	for i, b := range inputs {
		if b {
			words[i] = 1
		}
	}
	out, err := s.Run(words)
	if err != nil {
		return nil, err
	}
	res := make([]bool, len(out))
	for i, w := range out {
		res[i] = w&1 != 0
	}
	return res, nil
}

// AllFaults enumerates the full single-stuck-at universe of the
// circuit: SA0 and SA1 on every net (primary inputs and every gate
// output). This is the uncollapsed fault list.
func AllFaults(c *Circuit) []Fault {
	faults := make([]Fault, 0, 2*c.NumNets())
	seen := make(map[NetID]bool, c.NumNets())
	add := func(n NetID) {
		if seen[n] {
			return
		}
		seen[n] = true
		faults = append(faults, Fault{Net: n, Stuck: StuckAt0}, Fault{Net: n, Stuck: StuckAt1})
	}
	for _, n := range c.Inputs {
		add(n)
	}
	for _, ff := range c.FFs {
		add(ff.Q)
	}
	for _, g := range c.Gates {
		add(g.Out)
	}
	return faults
}

// CollapseFaults performs classic structural equivalence collapsing on
// a stem-fault universe:
//
//   - a BUF output fault is equivalent to the same fault on its input;
//   - a NOT output fault is equivalent to the opposite fault on its
//     input;
//   - an AND/NAND output SA0/SA1 (respectively) is equivalent to SA0 on
//     any single input when that input has no other fanout — we keep
//     the input-side representative when the input net feeds only this
//     gate; dually for OR/NOR with SA1.
//
// The returned list is a subset of faults whose detection implies
// detection of every removed fault.
func CollapseFaults(c *Circuit, faults []Fault) []Fault {
	fanout := c.FanoutCounts()
	// Map each net fault to its representative via union-find-ish
	// chaining along equivalence edges.
	type key struct {
		n NetID
		v StuckValue
	}
	parent := make(map[key]key)
	var find func(k key) key
	find = func(k key) key {
		p, ok := parent[k]
		if !ok {
			return k
		}
		r := find(p)
		parent[k] = r
		return r
	}
	union := func(child, root key) {
		cr, rr := find(child), find(root)
		if cr != rr {
			parent[cr] = rr
		}
	}
	for _, g := range c.Gates {
		switch g.Type {
		case Buf:
			union(key{g.Out, StuckAt0}, key{g.In[0], StuckAt0})
			union(key{g.Out, StuckAt1}, key{g.In[0], StuckAt1})
		case Not:
			union(key{g.Out, StuckAt0}, key{g.In[0], StuckAt1})
			union(key{g.Out, StuckAt1}, key{g.In[0], StuckAt0})
		case And, Nand:
			outV := StuckAt0
			if g.Type == Nand {
				outV = StuckAt1
			}
			// Controlling-value faults on single-fanout inputs are
			// equivalent to the output fault.
			for _, in := range g.In {
				if fanout[in] == 1 {
					union(key{in, StuckAt0}, key{g.Out, outV})
				}
			}
		case Or, Nor:
			outV := StuckAt1
			if g.Type == Nor {
				outV = StuckAt0
			}
			for _, in := range g.In {
				if fanout[in] == 1 {
					union(key{in, StuckAt1}, key{g.Out, outV})
				}
			}
		}
	}
	kept := make([]Fault, 0, len(faults))
	seen := make(map[key]bool)
	for _, f := range faults {
		r := find(key{f.Net, f.Stuck})
		if seen[r] {
			continue
		}
		seen[r] = true
		kept = append(kept, Fault{Net: r.n, Stuck: r.v})
	}
	return kept
}
