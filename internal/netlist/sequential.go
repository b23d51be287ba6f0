package netlist

import (
	"fmt"
)

// FF is one D flip-flop: on every clock tick the value on D is loaded
// onto Q. Q nets behave like primary inputs to the combinational
// logic within a cycle; D nets are ordinary combinational nets.
type FF struct {
	// D is the data input net (bound with SetD).
	D NetID
	// Q is the state output net.
	Q NetID
	// bound records whether SetD has run.
	bound bool
}

// DFF allocates a flip-flop and returns its Q net. The Q net may be
// used immediately (enabling feedback); bind the data input later
// with SetD. Unbound flip-flops fail Validate.
func (c *Circuit) DFF() NetID {
	q := c.newNet()
	c.FFs = append(c.FFs, FF{Q: q})
	c.ffOfQ[q] = len(c.FFs) - 1
	return q
}

// SetD binds the data input of the flip-flop owning Q.
func (c *Circuit) SetD(q, d NetID) error {
	idx, ok := c.ffOfQ[q]
	if !ok {
		return fmt.Errorf("netlist: net %d is not a flip-flop output", int(q))
	}
	if c.FFs[idx].bound {
		return fmt.Errorf("netlist: flip-flop %d already bound", idx)
	}
	if int(d) < 0 || int(d) >= c.numNets {
		return fmt.Errorf("netlist: SetD with unknown net %d", int(d))
	}
	c.FFs[idx].D = d
	c.FFs[idx].bound = true
	return nil
}

// NumFFs returns the flip-flop count.
func (c *Circuit) NumFFs() int { return len(c.FFs) }

// validateSequential extends Validate for circuits with state.
func (c *Circuit) validateSequential() error {
	for i, ff := range c.FFs {
		if !ff.bound {
			return fmt.Errorf("netlist: flip-flop %d (Q=n%d) has no D binding", i, int(ff.Q))
		}
	}
	return nil
}

// SequentialSimulator clocks a netlist with flip-flops, with the same
// 64-lane parallel semantics and fault injection as Simulator. Q nets
// carry state across Step calls; a stuck-at fault on a Q net models a
// defective register output.
type SequentialSimulator struct {
	sim   *Simulator
	state []uint64 // per FF
}

// NewSequentialSimulator returns a simulator with all state cleared.
// The circuit must pass Validate plus have every flip-flop bound.
func NewSequentialSimulator(c *Circuit) (*SequentialSimulator, error) {
	if err := c.validateSequential(); err != nil {
		return nil, err
	}
	return &SequentialSimulator{
		sim:   NewSimulator(c),
		state: make([]uint64, len(c.FFs)),
	}, nil
}

// Reset clears all flip-flops (fault injections persist).
func (s *SequentialSimulator) Reset() {
	for i := range s.state {
		s.state[i] = 0
	}
}

// ClearFaults removes injected faults.
func (s *SequentialSimulator) ClearFaults() { s.sim.ClearFaults() }

// InjectFault injects a stuck-at fault in the given lanes; faults on
// Q nets are applied when state is presented each cycle.
func (s *SequentialSimulator) InjectFault(f Fault, laneMask uint64) error {
	return s.sim.InjectFault(f, laneMask)
}

// Step evaluates one clock cycle: present state and inputs, settle
// the combinational logic, return the primary outputs, then load
// every flip-flop from its D.
func (s *SequentialSimulator) Step(inputs []uint64) ([]uint64, error) {
	c := s.sim.c
	if len(inputs) != len(c.Inputs) {
		return nil, fmt.Errorf("netlist: got %d input words, circuit has %d inputs",
			len(inputs), len(c.Inputs))
	}
	// Present PIs and state (with fault overrides).
	for i, n := range c.Inputs {
		s.sim.values[n] = s.sim.apply(n, inputs[i])
	}
	for i, ff := range c.FFs {
		s.sim.values[ff.Q] = s.sim.apply(ff.Q, s.state[i])
	}
	s.sim.runCompiled()
	out := make([]uint64, len(c.Outputs))
	for i, n := range c.Outputs {
		out[i] = s.sim.values[n]
	}
	// Clock edge: capture D into state.
	for i, ff := range c.FFs {
		s.state[i] = s.sim.values[ff.D]
	}
	return out, nil
}

// Value exposes the current word on a net after the last Step.
func (s *SequentialSimulator) Value(n NetID) uint64 { return s.sim.values[n] }
