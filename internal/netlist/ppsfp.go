package netlist

import (
	"fmt"
	"math/bits"
)

// Parallel-pattern single-fault propagation (PPSFP; Waicukauski et
// al., "Fault simulation for structured VLSI", 1985). In a campaign
// over a combinational circuit every step is an independent
// evaluation on known fault-free inputs, so the fault-free value of
// every net can be captured once, 64 steps to a word (the time-packed
// view), and each fault then re-evaluates only the gates its effect
// reaches: one fault per pass, 64 steps per gate evaluation.
//
// The propagation is event-driven over the compiled program. It starts
// at the fault net and visits gates in program (topological) order
// through a gate-index bitset, so no cone is compiled or sorted: a gate
// is evaluated only when one of its inputs differs from its fault-free
// value somewhere in the record, and its fanouts are scheduled only
// when its own output differs. Every other net carries its fault-free
// value by construction and is read straight from the view. With no
// per-fault compile the cost of a fault is the gates it disturbs times
// the record's words, so a 64-step record costs one word per gate.
//
// The time-packed view of a steps-long record is net-major: bit k of
// view[n*W+w], W = ⌈steps/64⌉, is net n's fault-free value at step
// 64w+k, so each net's record is one contiguous row. Past the last
// step the view must still hold one consistent fault-free evaluation
// (whatever inputs drove those lanes, as a capture that runs its last
// word's unused lanes leaves them); the fault is not applied there, so
// those bits never differ.

// Propagator is the per-worker state of the PPSFP kernel: the
// circuit's compiled program and fanout lists, and the buffers the
// kernel reuses. A Propagator is not safe for concurrent use; once its
// buffers have grown to the longest record it allocates nothing.
type Propagator struct {
	c    *Circuit
	prog *program
	// fanout[foStart[n]:foStart[n+1]] are the instructions reading
	// net n, in ascending (topological) order.
	foStart, fanout []int32
	// gateBits schedules gates during a propagation; it is all-clear
	// between calls. dirty marks the nets whose faulty row in vals
	// differs from the view; touched lists them, for the reset.
	gateBits []uint64
	dirty    []bool
	touched  []int32

	// vals[n*words:(n+1)*words] is net n's faulty row while dirty[n];
	// view and words are the current call's record.
	vals, diff []uint64
	view       []uint64
	words      int
	outs       []int
}

// NewPropagator compiles c for single-fault propagation. It fails
// when c holds a gate type the compiler does not know.
func NewPropagator(c *Circuit) (*Propagator, error) {
	prog := compileProgram(c)
	if prog == nil {
		return nil, fmt.Errorf("netlist: circuit does not compile for fault propagation")
	}
	nn := c.NumNets()
	p := &Propagator{
		c:        c,
		prog:     prog,
		foStart:  make([]int32, nn+1),
		gateBits: make([]uint64, (len(prog.ins)+63)/64),
		dirty:    make([]bool, nn),
	}
	var in []int32
	for gi := range prog.ins {
		in = prog.appendInputs(in[:0], &prog.ins[gi])
		for _, n := range in {
			p.foStart[n+1]++
		}
	}
	for n := 0; n < nn; n++ {
		p.foStart[n+1] += p.foStart[n]
	}
	p.fanout = make([]int32, p.foStart[nn])
	fill := append([]int32(nil), p.foStart[:nn]...)
	for gi := range prog.ins {
		in = prog.appendInputs(in[:0], &prog.ins[gi])
		for _, n := range in {
			p.fanout[fill[n]] = int32(gi)
			fill[n]++
		}
	}
	return p, nil
}

// appendInputs appends the input nets of g to dst.
func (p *program) appendInputs(dst []int32, g *instr) []int32 {
	switch {
	case g.code == opConst0 || g.code == opConst1:
		return dst
	case g.code == opNot || g.code == opBuf:
		return append(dst, g.a)
	case g.code >= opAndN:
		return append(dst, p.inIdx[g.a:g.a+g.b]...)
	default:
		return append(dst, g.a, g.b)
	}
}

// Propagate simulates fault f over a steps-long record whose
// fault-free values are the time-packed view. It returns the indices
// (into Circuit.Outputs) of the primary outputs whose value the fault
// changes at some step — none when it never changes its own net — and,
// for the j-th of them, its difference words: bit k of diff[j*W+w],
// W = ⌈steps/64⌉, is set when that output's faulty value differs from
// its fault-free value at step 64w+k. Bits past the last step are
// clear, and outputs not listed never differ. Both slices are
// overwritten by the next call. The view must be exactly W words per
// net.
func (p *Propagator) Propagate(view []uint64, steps int, f Fault) (outs []int, diff []uint64, err error) {
	nn := p.c.NumNets()
	if int(f.Net) < 0 || int(f.Net) >= nn {
		return nil, nil, fmt.Errorf("netlist: fault on unknown net %d", int(f.Net))
	}
	words := (steps + 63) / 64
	if steps < 0 || len(view) != words*nn {
		return nil, nil, fmt.Errorf("netlist: view of %d words does not hold %d steps of %d nets", len(view), steps, nn)
	}
	if words == 0 {
		return nil, p.diff[:0], nil
	}
	p.view, p.words = view, words
	p.vals = grow(p.vals, nn*words)
	var stuck uint64
	if f.Stuck == StuckAt1 {
		stuck = ^uint64(0)
	}
	// Past the last step the stuck row keeps the fault-free bits, so
	// every faulty row equals its view row there and no difference
	// needs masking.
	lastMask := ^uint64(0)
	if rem := steps % 64; rem != 0 {
		lastMask = 1<<uint(rem) - 1
	}
	n := int(f.Net)
	row, good := p.vals[n*words:n*words+words], view[n*words:n*words+words]
	var d uint64
	for w := range row {
		row[w] = stuck
		if w == words-1 {
			row[w] = stuck&lastMask | good[w]&^lastMask
		}
		d |= row[w] ^ good[w]
	}
	if d != 0 {
		p.mark(n)
		p.spread()
	}

	p.outs = p.outs[:0]
	for i, m := range p.c.Outputs {
		if p.dirty[m] {
			p.outs = append(p.outs, i)
		}
	}
	p.diff = grow(p.diff, len(p.outs)*words)
	for j, i := range p.outs {
		m := int(p.c.Outputs[i])
		dst := p.diff[j*words : (j+1)*words]
		for w := range dst {
			dst[w] = p.vals[m*words+w] ^ view[m*words+w]
		}
	}
	for _, m := range p.touched {
		p.dirty[m] = false
	}
	p.touched = p.touched[:0]
	return p.outs, p.diff, nil
}

// mark makes net n dirty, its row in vals differing from its view row,
// and schedules its fanouts.
func (p *Propagator) mark(n int) {
	p.dirty[n] = true
	p.touched = append(p.touched, int32(n))
	for _, gi := range p.fanout[p.foStart[n]:p.foStart[n+1]] {
		p.gateBits[gi>>6] |= 1 << uint(gi&63)
	}
}

// spread evaluates the scheduled gates in ascending (topological)
// order until none is left: every fanout of a gate lies above it, so
// one upward sweep of the bitset reaches each gate after all of its
// inputs are final, and the gates it schedules are still ahead.
func (p *Propagator) spread() {
	gateBits := p.gateBits
	for wi := range gateBits {
		for gateBits[wi] != 0 {
			gi := wi<<6 | bits.TrailingZeros64(gateBits[wi])
			gateBits[wi] &= gateBits[wi] - 1
			g := &p.prog.ins[gi]
			if p.eval(g) != 0 {
				p.mark(int(g.out))
			}
		}
	}
}

// row returns net n's current row: its faulty row while dirty, its
// fault-free view row otherwise.
func (p *Propagator) row(n int32) []uint64 {
	if p.dirty[n] {
		return p.vals[int(n)*p.words : int(n)*p.words+p.words]
	}
	return p.view[int(n)*p.words : int(n)*p.words+p.words]
}

// inverting marks the opcodes whose result is the complement of their
// base operation (AND, OR, XOR or BUF).
var inverting = [...]bool{
	opNand2: true, opNor2: true, opXnor2: true, opNot: true,
	opNandN: true, opNorN: true, opXnorN: true,
}

// eval fills g's output row in vals from its input rows and returns
// the OR of its difference from the output's view row (zero: the gate
// output is fault-free). Dispatching once per gate rather than once
// per gate and word leaves the inner loops branch-free.
func (p *Propagator) eval(g *instr) (d uint64) {
	words := p.words
	out := p.vals[int(g.out)*words : int(g.out)*words+words]
	good := p.view[int(g.out)*words : int(g.out)*words+words][:len(out)]
	var inv uint64
	if inverting[g.code] {
		inv = ^uint64(0)
	}
	switch g.code {
	case opAnd2, opNand2:
		a, b := p.row(g.a)[:len(out)], p.row(g.b)[:len(out)]
		for w := range out {
			out[w] = (a[w] & b[w]) ^ inv
			d |= out[w] ^ good[w]
		}
	case opOr2, opNor2:
		a, b := p.row(g.a)[:len(out)], p.row(g.b)[:len(out)]
		for w := range out {
			out[w] = (a[w] | b[w]) ^ inv
			d |= out[w] ^ good[w]
		}
	case opXor2, opXnor2:
		a, b := p.row(g.a)[:len(out)], p.row(g.b)[:len(out)]
		for w := range out {
			out[w] = a[w] ^ b[w] ^ inv
			d |= out[w] ^ good[w]
		}
	case opNot, opBuf:
		a := p.row(g.a)[:len(out)]
		for w := range out {
			out[w] = a[w] ^ inv
			d |= out[w] ^ good[w]
		}
	case opConst0, opConst1:
		// A constant gate has no inputs, so it is never scheduled.
	default:
		ops := p.prog.inIdx[g.a : g.a+g.b]
		copy(out, p.row(ops[0]))
		for _, n := range ops[1:] {
			a := p.row(n)[:len(out)]
			switch g.code {
			case opAndN, opNandN:
				for w := range out {
					out[w] &= a[w]
				}
			case opOrN, opNorN:
				for w := range out {
					out[w] |= a[w]
				}
			default: // opXorN, opXnorN
				for w := range out {
					out[w] ^= a[w]
				}
			}
		}
		for w := range out {
			out[w] ^= inv
			d |= out[w] ^ good[w]
		}
	}
	return d
}

// grow returns buf resized to n, reallocating only when it is short.
func grow(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}
