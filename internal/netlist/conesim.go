package netlist

// Differential (cone-restricted) simulation. In a fault campaign every
// batch drives the circuit with the same input record, so the
// fault-free value of every net at every step is the same for all
// batches. A batch therefore only needs to re-evaluate the gates in
// the forward fanout cone of its faulted nets: every other net is
// structurally guaranteed to carry its fault-free (baseline) value in
// all lanes. Capturing the baseline once and replaying each batch
// against it removes the ~80% of gate evaluations that fall outside
// the cone on typical FIR universes.

// Cone is the compiled forward fanout cone of the simulator's injected
// fault set: the instructions that must be re-evaluated, the side nets
// whose baseline values they read, and the primary outputs the cone
// reaches. Build it after InjectFault; it stays valid until the fault
// set changes.
type Cone struct {
	// gates are instruction indices in topological order.
	gates []int32
	// side are nets read by cone gates but driven outside the cone;
	// their values come from the baseline snapshot.
	side []int32
	// forcedIn are faulted nets driven by no gate (primary inputs and
	// flip-flop outputs); their fault masks apply to the baseline value.
	forcedIn []int32
	// outIdx indexes Circuit.Outputs driven inside the cone.
	outIdx []int
}

// Gates returns the number of gates the cone re-evaluates per step.
func (c *Cone) Gates() int { return len(c.gates) }

// OutputIndices returns the indices (into Circuit.Outputs) of the
// primary outputs whose value can differ from the baseline. Outputs
// not listed carry the fault-free value in every lane, so a decoder
// need only compare these outputs' words against their baseline bits
// (digital.FIRSim.RunLanesCone visits just the differing lane bits).
func (c *Cone) OutputIndices() []int { return c.outIdx }

// BuildCone compiles the fanout cone of the currently injected faults.
// It returns nil when the circuit could not be compiled (see
// compileProgram), in which case callers must fall back to full runs.
func (s *Simulator) BuildCone() *Cone {
	p := s.prog
	if p == nil {
		return nil
	}
	nn := s.c.NumNets()
	inCone := make([]bool, nn)
	sideSeen := make([]bool, nn)
	cone := &Cone{}
	for _, n := range s.dirtyNets {
		inCone[n] = true
		if p.gateOf[n] < 0 {
			cone.forcedIn = append(cone.forcedIn, int32(n))
		}
	}
	addSide := func(n int32) {
		if !inCone[n] && !sideSeen[n] {
			sideSeen[n] = true
			cone.side = append(cone.side, n)
		}
	}
	for gi := range p.ins {
		g := &p.ins[gi]
		take := inCone[g.out]
		switch g.code {
		case opConst0, opConst1:
			// no inputs
		case opNot, opBuf:
			take = take || inCone[g.a]
		case opAndN, opNandN, opOrN, opNorN, opXorN, opXnorN:
			for _, in := range p.inIdx[g.a : g.a+g.b] {
				if inCone[in] {
					take = true
					break
				}
			}
		default: // two-input opcodes
			take = take || inCone[g.a] || inCone[g.b]
		}
		if !take {
			continue
		}
		switch g.code {
		case opConst0, opConst1:
		case opNot, opBuf:
			addSide(g.a)
		case opAndN, opNandN, opOrN, opNorN, opXorN, opXnorN:
			for _, in := range p.inIdx[g.a : g.a+g.b] {
				addSide(in)
			}
		default:
			addSide(g.a)
			addSide(g.b)
		}
		inCone[g.out] = true
		cone.gates = append(cone.gates, int32(gi))
	}
	for i, n := range s.c.Outputs {
		if inCone[n] {
			cone.outIdx = append(cone.outIdx, i)
		}
	}
	return cone
}

// BitWords returns the uint64 count of a packed snapshot row for a
// circuit with nn nets (see SnapshotBits).
func BitWords(nn int) int { return (nn + 63) / 64 }

// SnapshotBits packs the current net values (after a Run) into one bit
// per net: dst must have length BitWords(NumNets). It is valid only
// after a broadcast run — identical inputs in every lane and no faults
// injected — where every net word is all-zeros or all-ones, so lane 0
// carries the whole word. A fault-free campaign baseline is exactly
// such a run, and packing it keeps a whole record's worth of snapshots
// cache-resident instead of streaming NumNets×8 bytes per step per
// batch through memory.
func (s *Simulator) SnapshotBits(dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
	for n, v := range s.values {
		dst[n>>6] |= (v & 1) << (uint(n) & 63)
	}
}

// baseWord expands net n's packed baseline bit back to the broadcast
// word it was captured from.
func baseWord(base []uint64, n int32) uint64 {
	return -(base[n>>6] >> (uint(n) & 63) & 1)
}

// RunCone evaluates only the cone gates against the packed baseline
// snapshot base (a fault-free SnapshotBits capture for the same input
// step). After the call, Value(n) is correct for every net in the
// cone; outputs outside Cone.OutputIndices carry the baseline value in
// all lanes. The evaluation applies the same fault masks, in the same
// order, as a full Run, so cone-net values are bit-identical to a full
// faulty run driven by the broadcast stimulus the baseline captured.
func (s *Simulator) RunCone(cone *Cone, base []uint64) {
	values := s.values
	for _, n := range cone.side {
		values[n] = baseWord(base, n)
	}
	for _, n := range cone.forcedIn {
		values[n] = (baseWord(base, n) &^ s.forced0[n]) | s.forced1[n]
	}
	p := s.prog
	for _, gi := range cone.gates {
		g := &p.ins[gi]
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
