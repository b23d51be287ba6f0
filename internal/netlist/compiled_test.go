package netlist

import (
	"math/rand"
	"testing"
)

// randomCircuit builds a random multi-level circuit exercising every
// gate type, including wide (3+ input) forms.
func randomCircuit(rng *rand.Rand, inputs, gates int) *Circuit {
	c := New()
	nets := make([]NetID, 0, inputs+gates)
	for i := 0; i < inputs; i++ {
		nets = append(nets, c.Input(""))
	}
	pick := func() NetID { return nets[rng.Intn(len(nets))] }
	for g := 0; g < gates; g++ {
		var n NetID
		switch rng.Intn(11) {
		case 0:
			n = c.And(pick(), pick())
		case 1:
			n = c.Or(pick(), pick())
		case 2:
			n = c.Nand(pick(), pick())
		case 3:
			n = c.Nor(pick(), pick())
		case 4:
			n = c.Xor(pick(), pick())
		case 5:
			n = c.Xnor(pick(), pick())
		case 6:
			n = c.Not(pick())
		case 7:
			n = c.Buf(pick())
		case 8:
			n = c.And(pick(), pick(), pick(), pick())
		case 9:
			n = c.Const(rng.Intn(2) == 0)
		default:
			n = c.Xor(pick(), pick(), pick())
		}
		nets = append(nets, n)
	}
	for i := 0; i < 8; i++ {
		c.MarkOutput(nets[len(nets)-1-i], "")
	}
	return c
}

// TestCompiledMatchesInterpreter drives random circuits with random
// fault sets through the compiled instruction stream and the Gate-
// slice interpreter and requires identical outputs word for word.
func TestCompiledMatchesInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		c := randomCircuit(rng, 6+rng.Intn(6), 40+rng.Intn(120))
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		compiled := NewSimulator(c)
		if !compiled.Compiled() {
			t.Fatal("builder circuit did not compile")
		}
		interp := NewSimulator(c)
		interp.prog = nil // force the Gate-slice fallback
		var faults []Fault
		for i := 0; i < rng.Intn(6); i++ {
			f := Fault{Net: NetID(rng.Intn(c.NumNets())), Stuck: StuckValue(rng.Intn(2))}
			faults = append(faults, f)
		}
		for _, f := range faults {
			mask := rng.Uint64()
			if err := compiled.InjectFault(f, mask); err != nil {
				t.Fatal(err)
			}
			if err := interp.InjectFault(f, mask); err != nil {
				t.Fatal(err)
			}
		}
		ins := make([]uint64, len(c.Inputs))
		for step := 0; step < 5; step++ {
			for i := range ins {
				ins[i] = rng.Uint64()
			}
			a, err := compiled.Run(ins)
			if err != nil {
				t.Fatal(err)
			}
			b, err := interp.Run(ins)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trial %d step %d: output %d differs: compiled %x interp %x",
						trial, step, i, a[i], b[i])
				}
			}
		}
		// Clearing faults must restore agreement with a fresh machine.
		compiled.ClearFaults()
		fresh := NewSimulator(c)
		for i := range ins {
			ins[i] = rng.Uint64()
		}
		a, err := compiled.Run(ins)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.Run(ins)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: ClearFaults left state behind on output %d", trial, i)
			}
		}
	}
}

// propagationCircuit is a random circuit with the shapes single-fault
// propagation must get right beyond randomCircuit's: every wide gate
// form, a primary input that is also an output, and a net listed as
// two outputs.
func propagationCircuit(rng *rand.Rand) *Circuit {
	c := randomCircuit(rng, 6+rng.Intn(6), 40+rng.Intn(120))
	pick := func() NetID { return NetID(rng.Intn(c.NumNets())) }
	for _, wide := range []func(...NetID) NetID{c.Or, c.Nand, c.Nor, c.Xnor} {
		c.MarkOutput(wide(pick(), pick(), pick()), "")
	}
	c.MarkOutput(c.Inputs[rng.Intn(len(c.Inputs))], "")
	shared := NetID(len(c.Inputs) + rng.Intn(c.NumNets()-len(c.Inputs)))
	c.MarkOutput(shared, "")
	c.MarkOutput(shared, "")
	return c
}

// TestPropagatorMatchesFaultyRun checks the PPSFP kernel against the
// full simulator: on random compiled circuits (wide gates, constant
// gates, inputs and multiply-listed nets among the outputs), every
// stuck-at fault — primary inputs and output nets included — is
// propagated over a time-packed good view, and each output's
// difference words must equal a full Run with the fault injected in
// all lanes, step (lane) by step. Faults go in AllFaults order and
// then in reverse order, so every fault follows both faults on other
// nets and the opposite fault on its own net: a call that left state
// behind would show.
func TestPropagatorMatchesFaultyRun(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 12; trial++ {
		c := propagationCircuit(rng)
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		prop, err := NewPropagator(c)
		if err != nil {
			t.Fatal(err)
		}
		good := NewSimulator(c)
		nn := c.NumNets()
		faults := AllFaults(c)
		for i := len(faults) - 1; i >= 0; i-- {
			faults = append(faults, faults[i])
		}
		for _, steps := range []int{1, 63, 64, 65, 1000} {
			words := (steps + 63) / 64
			inputs := make([][]uint64, words)
			view := make([]uint64, words*nn)
			goodOut := make([][]uint64, words)
			for w := range inputs {
				inputs[w] = make([]uint64, len(c.Inputs))
				for i := range inputs[w] {
					inputs[w][i] = rng.Uint64()
				}
				out, err := good.Run(inputs[w])
				if err != nil {
					t.Fatal(err)
				}
				goodOut[w] = out
				for n, v := range good.Values() {
					view[n*words+w] = v
				}
			}
			for _, f := range faults {
				faulty := NewSimulator(c)
				if err := faulty.InjectFault(f, ^uint64(0)); err != nil {
					t.Fatal(err)
				}
				outs, diff, err := prop.Propagate(view, steps, f)
				if err != nil {
					t.Fatal(err)
				}
				listed := make(map[int]int)
				for j, i := range outs {
					listed[i] = j
				}
				for w := 0; w < words; w++ {
					mask := ^uint64(0)
					if rem := steps - 64*w; rem < 64 {
						mask = 1<<uint(rem) - 1
					}
					out, err := faulty.Run(inputs[w])
					if err != nil {
						t.Fatal(err)
					}
					for i := range out {
						want := (out[i] ^ goodOut[w][i]) & mask
						var got uint64
						if j, ok := listed[i]; ok {
							got = diff[j*words+w]
						}
						if got != want {
							t.Fatalf("trial %d steps %d fault %v word %d output %d: propagated diff %x, full run %x (listed %v)",
								trial, steps, f, w, i, got, want, listed)
						}
					}
				}
			}
		}
	}
}

// TestPropagatorSteadyStateAllocsNothing pins that a warmed
// propagator allocates nothing per fault: every buffer is reused.
func TestPropagatorSteadyStateAllocsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := propagationCircuit(rng)
	prop, err := NewPropagator(c)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 200
	view := make([]uint64, 4*c.NumNets())
	for i := range view {
		view[i] = rng.Uint64()
	}
	faults := AllFaults(c)
	for _, f := range faults {
		if _, _, err := prop.Propagate(view, steps, f); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, f := range faults {
			if _, _, err := prop.Propagate(view, steps, f); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("warmed Propagate allocated %.1f times per universe, want 0", allocs)
	}
}

func TestPropagatorRejectsBadInput(t *testing.T) {
	c := New()
	a, b := c.Input("a"), c.Input("b")
	c.MarkOutput(c.And(a, b), "y")
	prop, err := NewPropagator(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := prop.Propagate(make([]uint64, c.NumNets()), 64, Fault{Net: 99}); err == nil {
		t.Error("fault on an unknown net accepted")
	}
	if _, _, err := prop.Propagate(make([]uint64, c.NumNets()), 65, Fault{Net: a}); err == nil {
		t.Error("view one word short accepted")
	}
	c.Gates = append(c.Gates, Gate{Type: GateType(99), In: []NetID{a}, Out: c.newNet()})
	if _, err := NewPropagator(c); err == nil {
		t.Error("uncompilable circuit accepted")
	}
}
