package netlist

// Compiled simulation. NewSimulator lowers the gate list into a flat
// instruction stream: one fixed-size instr per gate, with the inputs of
// one- and two-input gates stored inline and wider gates indexing a
// shared flattened input array. Interpreting this stream instead of the
// Gate slice removes the per-gate slice-header chase (each Gate.In is a
// separately allocated backing array) and the per-gate fault-mask loads
// — the forced0/forced1 words are consulted only for instructions whose
// output net actually carries an active fault, which InjectFault and
// ClearFaults track with a one-byte flag on the instruction itself.

type opCode uint8

const (
	opAnd2 opCode = iota
	opNand2
	opOr2
	opNor2
	opXor2
	opXnor2
	opNot
	opBuf
	opConst0
	opConst1
	// Wide (3+ input) forms: a,b index a span of program.inIdx.
	opAndN
	opNandN
	opOrN
	opNorN
	opXorN
	opXnorN
)

// instr is one compiled gate. For two-input opcodes a and b are the
// input nets; for one-input opcodes only a is used; for wide opcodes a
// is the start and b the length of the input span in program.inIdx.
// forced is nonzero while the output net has an active fault mask.
type instr struct {
	code   opCode
	forced uint8
	out    int32
	a, b   int32
}

// program is the compiled form of a circuit's gate list. ins and the
// forced flags inside it are owned by one Simulator; inIdx and gateOf
// are read-only after compilation.
type program struct {
	ins   []instr
	inIdx []int32
	// gateOf[n] is the instruction index driving net n, or -1 when the
	// net is a primary input or flip-flop output (their fault masks are
	// applied where the value is loaded, not here).
	gateOf []int32
}

// compileProgram lowers c.Gates. It returns nil when the circuit holds
// a gate type the compiler does not know (one Validate rejects).
func compileProgram(c *Circuit) *program {
	p := &program{
		ins:    make([]instr, 0, len(c.Gates)),
		gateOf: make([]int32, c.NumNets()),
	}
	for i := range p.gateOf {
		p.gateOf[i] = -1
	}
	for _, g := range c.Gates {
		in := instr{out: int32(g.Out)}
		switch {
		case g.Type == Const0:
			in.code = opConst0
		case g.Type == Const1:
			in.code = opConst1
		case g.Type == Not || g.Type == Buf:
			if g.Type == Not {
				in.code = opNot
			} else {
				in.code = opBuf
			}
			in.a = int32(g.In[0])
		case len(g.In) == 2:
			switch g.Type {
			case And:
				in.code = opAnd2
			case Nand:
				in.code = opNand2
			case Or:
				in.code = opOr2
			case Nor:
				in.code = opNor2
			case Xor:
				in.code = opXor2
			case Xnor:
				in.code = opXnor2
			default:
				return nil
			}
			in.a, in.b = int32(g.In[0]), int32(g.In[1])
		default:
			switch g.Type {
			case And:
				in.code = opAndN
			case Nand:
				in.code = opNandN
			case Or:
				in.code = opOrN
			case Nor:
				in.code = opNorN
			case Xor:
				in.code = opXorN
			case Xnor:
				in.code = opXnorN
			default:
				return nil
			}
			in.a = int32(len(p.inIdx))
			in.b = int32(len(g.In))
			for _, n := range g.In {
				p.inIdx = append(p.inIdx, int32(n))
			}
		}
		p.gateOf[g.Out] = int32(len(p.ins))
		p.ins = append(p.ins, in)
	}
	return p
}

// setForced flags or unflags the instruction driving net n. Nets not
// driven by a gate (primary inputs, FF outputs) have their masks
// applied at value-load time and need no flag.
func (p *program) setForced(n NetID, forced bool) {
	if gi := p.gateOf[n]; gi >= 0 {
		if forced {
			p.ins[gi].forced = 1
		} else {
			p.ins[gi].forced = 0
		}
	}
}

// runCompiled evaluates the instruction stream in topological order.
func (s *Simulator) runCompiled() {
	values := s.values
	p := s.prog
	for i := range p.ins {
		g := &p.ins[i]
		var v uint64
		switch g.code {
		case opAnd2:
			v = values[g.a] & values[g.b]
		case opNand2:
			v = ^(values[g.a] & values[g.b])
		case opOr2:
			v = values[g.a] | values[g.b]
		case opNor2:
			v = ^(values[g.a] | values[g.b])
		case opXor2:
			v = values[g.a] ^ values[g.b]
		case opXnor2:
			v = ^(values[g.a] ^ values[g.b])
		case opNot:
			v = ^values[g.a]
		case opBuf:
			v = values[g.a]
		case opConst0:
			v = 0
		case opConst1:
			v = ^uint64(0)
		default:
			v = runWide(g, values, p.inIdx)
		}
		if g.forced != 0 {
			v = (v &^ s.forced0[g.out]) | s.forced1[g.out]
		}
		values[g.out] = v
	}
}

// runWide evaluates a 3+-input instruction.
func runWide(g *instr, values []uint64, inIdx []int32) uint64 {
	ins := inIdx[g.a : g.a+g.b]
	var v uint64
	switch g.code {
	case opAndN, opNandN:
		v = ^uint64(0)
		for _, in := range ins {
			v &= values[in]
		}
		if g.code == opNandN {
			v = ^v
		}
	case opOrN, opNorN:
		for _, in := range ins {
			v |= values[in]
		}
		if g.code == opNorN {
			v = ^v
		}
	default: // opXorN, opXnorN
		for _, in := range ins {
			v ^= values[in]
		}
		if g.code == opXnorN {
			v = ^v
		}
	}
	return v
}
