package digital

import (
	"fmt"
	"math/bits"

	"mstx/internal/netlist"
)

// FIR is a gate-level direct-form FIR filter: y[n] = Σ c_i·x[n-i],
// built as a purely combinational netlist. Each delayed sample x[n-i]
// appears on its own primary-input bus (the delay line lives outside
// the netlist, in FIRSim), so register-output stuck-at faults are
// stuck-at faults on those input nets.
type FIR struct {
	// Coeffs are the integer tap coefficients c_0..c_{T-1}.
	Coeffs []int64
	// InWidth is the sample word width in bits (two's complement).
	InWidth int
	// DropLSBs is how many low bits of the convolution sum are
	// discarded at the output (fixed-point truncation).
	DropLSBs int
	// Circuit is the combinational netlist computing the full-precision
	// convolution sum.
	Circuit *netlist.Circuit
	// TapBuses[i] is the input bus carrying x[n-i].
	TapBuses []Bus
	// OutBus is the output bus, wide enough that the sum is exact.
	OutBus Bus
	// TapNets[i] lists the nets belonging to tap i's cone (the
	// multiplier and its adder into the sum tree), used to map detected
	// faults back to "a fault in tap i" as in the paper's Figure 1.
	TapNets [][]netlist.NetID

	// tapOf[n] is TapOfNet(n), tabulated from TapNets by the
	// constructor.
	tapOf []int32
}

// FIROptions selects implementation variants of the gate-level FIR.
type FIROptions struct {
	// DropLSBs truncates the output (see NewFIRTruncated).
	DropLSBs int
	// UseCSD builds the constant multipliers from canonical signed-
	// digit recodings (adds and subtracts) instead of plain binary
	// shift-add — fewer gates for dense coefficients.
	UseCSD bool
}

// NewFIR builds the gate-level filter with a full-precision output.
// Coefficients must be nonzero somewhere; inWidth must be in [2, 32].
func NewFIR(coeffs []int64, inWidth int) (*FIR, error) {
	return NewFIRWithOptions(coeffs, inWidth, FIROptions{})
}

// NewFIRTruncated builds the gate-level filter with the low dropLSBs
// bits of the convolution sum discarded — the usual fixed-point
// practice of rounding off the coefficient fraction. The logic of the
// dropped bits remains in the netlist (it still drives carries into
// the retained bits), so low-bit faults stay in the universe but are
// observable only through carry propagation.
func NewFIRTruncated(coeffs []int64, inWidth, dropLSBs int) (*FIR, error) {
	return NewFIRWithOptions(coeffs, inWidth, FIROptions{DropLSBs: dropLSBs})
}

// NewFIRWithOptions builds the gate-level filter with the given
// implementation options.
func NewFIRWithOptions(coeffs []int64, inWidth int, opts FIROptions) (*FIR, error) {
	dropLSBs := opts.DropLSBs
	if len(coeffs) == 0 {
		return nil, fmt.Errorf("digital: FIR needs at least one coefficient")
	}
	if inWidth < 2 || inWidth > 32 {
		return nil, fmt.Errorf("digital: FIR input width %d out of range [2,32]", inWidth)
	}
	if dropLSBs < 0 {
		return nil, fmt.Errorf("digital: negative dropLSBs")
	}
	b := NewBuilder()
	fir := &FIR{
		Coeffs:   append([]int64(nil), coeffs...),
		InWidth:  inWidth,
		DropLSBs: dropLSBs,
	}
	var products []Bus
	for i, c := range coeffs {
		bus := b.InputBus(fmt.Sprintf("x%d", i), inWidth)
		fir.TapBuses = append(fir.TapBuses, bus)
		start := b.C.NumNets()
		var prod Bus
		if opts.UseCSD {
			prod = b.MulConstCSD(bus, c)
		} else {
			prod = b.MulConst(bus, c)
		}
		products = append(products, prod)
		var cone []netlist.NetID
		for n := start; n < b.C.NumNets(); n++ {
			cone = append(cone, netlist.NetID(n))
		}
		// The tap's own input nets belong to its cone as well.
		cone = append(cone, bus...)
		fir.TapNets = append(fir.TapNets, cone)
	}
	sum := b.SumTree(products)
	if dropLSBs >= len(sum) {
		return nil, fmt.Errorf("digital: dropLSBs %d >= sum width %d", dropLSBs, len(sum))
	}
	sum = sum[dropLSBs:]
	b.MarkOutputBus(sum, "y")
	fir.OutBus = sum
	fir.Circuit = b.C
	fir.indexTapNets()
	if err := fir.Circuit.Validate(); err != nil {
		return nil, fmt.Errorf("digital: built FIR fails validation: %w", err)
	}
	return fir, nil
}

// Taps returns the number of taps.
func (f *FIR) Taps() int { return len(f.Coeffs) }

// OutWidth returns the output bus width in bits.
func (f *FIR) OutWidth() int { return len(f.OutBus) }

// TapOfNet returns the index of the first tap whose cone contains net
// n, or -1 when the net belongs to the shared sum tree. It is a table
// lookup, built once with the filter.
func (f *FIR) TapOfNet(n netlist.NetID) int {
	if n < 0 || int(n) >= len(f.tapOf) {
		return -1
	}
	return int(f.tapOf[n])
}

// indexTapNets tabulates TapOfNet from TapNets. It walks the taps
// backwards so that, for a net listed by several taps, the first tap
// wins, as a front-to-back scan would find it.
func (f *FIR) indexTapNets() {
	f.tapOf = make([]int32, f.Circuit.NumNets())
	for n := range f.tapOf {
		f.tapOf[n] = -1
	}
	for i := len(f.TapNets) - 1; i >= 0; i-- {
		for _, n := range f.TapNets[i] {
			f.tapOf[n] = int32(i)
		}
	}
}

// Reference computes the exact behavioural response y[n] = Σ c_i·x[n-i]
// for the input record xs (samples before the record are zero). It is
// the oracle the gate-level machine is checked against.
func (f *FIR) Reference(xs []int64) []int64 {
	out := make([]int64, len(xs))
	for n := range xs {
		var acc int64
		for i, c := range f.Coeffs {
			if n-i < 0 {
				break
			}
			acc += c * xs[n-i]
		}
		out[n] = acc >> uint(f.DropLSBs)
	}
	return out
}

// FIRSim runs a gate-level FIR over a sample stream, maintaining the
// delay line and supporting 64-lane fault-parallel evaluation: lane 0
// is the fault-free machine, lanes 1..63 may each carry one injected
// fault. Inputs are broadcast to all lanes.
type FIRSim struct {
	fir   *FIR
	sim   *netlist.Simulator
	delay []int64
	// scratch buffers reused across steps
	inWords []uint64
}

// NewFIRSim returns a simulator for f with a cleared delay line.
func NewFIRSim(f *FIR) *FIRSim {
	return &FIRSim{
		fir:     f,
		sim:     netlist.NewSimulator(f.Circuit),
		delay:   make([]int64, f.Taps()),
		inWords: make([]uint64, f.Taps()*f.InWidth),
	}
}

// Reset clears the delay line (fault injections are preserved).
func (s *FIRSim) Reset() {
	for i := range s.delay {
		s.delay[i] = 0
	}
}

// ClearFaults removes all injected faults.
func (s *FIRSim) ClearFaults() { s.sim.ClearFaults() }

// Compiled reports whether the circuit compiles, which FaultReplay
// requires.
func (s *FIRSim) Compiled() bool { return s.sim.Compiled() }

// InjectFault injects a stuck-at fault into the given lanes.
func (s *FIRSim) InjectFault(f netlist.Fault, laneMask uint64) error {
	return s.sim.InjectFault(f, laneMask)
}

// Saturate clamps v into the two's-complement range of width bits,
// mirroring what a fixed-point input register does to an over-range
// sample.
func Saturate(v int64, width int) int64 {
	max := int64(1)<<uint(width-1) - 1
	min := -max - 1
	if v > max {
		return max
	}
	if v < min {
		return min
	}
	return v
}

// shift moves x, saturated to the input width, into the delay line.
func (s *FIRSim) shift(x int64) {
	copy(s.delay[1:], s.delay[:len(s.delay)-1])
	s.delay[0] = Saturate(x, s.fir.InWidth)
}

// Step shifts x into the delay line, evaluates the netlist, and
// returns the per-lane outputs. The returned slice is reused by the
// next Step; callers keeping results must copy. x is saturated to the
// input width.
func (s *FIRSim) Step(x int64) ([]uint64, error) {
	s.shift(x)
	w := s.fir.InWidth
	for tap, v := range s.delay {
		for bit := 0; bit < w; bit++ {
			if v>>uint(bit)&1 == 1 {
				s.inWords[tap*w+bit] = ^uint64(0)
			} else {
				s.inWords[tap*w+bit] = 0
			}
		}
	}
	return s.sim.Run(s.inWords)
}

// StepValue is Step returning only the fault-free (lane 0) output as a
// signed integer.
func (s *FIRSim) StepValue(x int64) (int64, error) {
	out, err := s.Step(x)
	if err != nil {
		return 0, err
	}
	return DecodeSignedLane(out, 0), nil
}

// Run processes a whole record and returns the lane-0 output record.
func (s *FIRSim) Run(xs []int64) ([]int64, error) {
	out := make([]int64, len(xs))
	for i, x := range xs {
		y, err := s.StepValue(x)
		if err != nil {
			return nil, err
		}
		out[i] = y
	}
	return out, nil
}

// Warm preloads the delay line by feeding the samples of xs without
// collecting outputs. Feeding the last Taps−1 samples of a record
// before running it yields the exact steady-state periodic response
// for a coherent (record-periodic) stimulus.
func (s *FIRSim) Warm(xs []int64) error {
	for _, x := range xs {
		if _, err := s.Step(x); err != nil {
			return err
		}
	}
	return nil
}

// RunPeriodic treats xs as one period of a periodic stimulus: the
// delay line is warmed with the record tail, so the output record is
// the steady-state response with no start-up transient. This is the
// evaluation mode for spectral (coherent-test) campaigns.
//
// A simulator with no fault injected computes the record 64 steps per
// netlist pass: the delay line shifts serially, exactly as the warm-up
// and Step do, so records shorter than Taps−1 keep their semantics,
// and step 64w+k drives lane k of pass w (16 passes instead of 1036
// for 1024 samples). With faults injected it steps serially and
// returns lane 0.
func (s *FIRSim) RunPeriodic(xs []int64) ([]int64, error) {
	if !s.sim.HasFaults() {
		good := make([]int64, len(xs))
		if err := s.runPacked(xs, good, nil); err != nil {
			return nil, err
		}
		return good, nil
	}
	if err := s.warmTail(xs); err != nil {
		return nil, err
	}
	return s.Run(xs)
}

// RunLanesPeriodic is RunLanes with the periodic warm-up of
// RunPeriodic.
func (s *FIRSim) RunLanesPeriodic(xs []int64, lanes int) ([][]int64, error) {
	if err := s.warmTail(xs); err != nil {
		return nil, err
	}
	return s.RunLanes(xs, lanes)
}

func (s *FIRSim) warmTail(xs []int64) error {
	warm := s.fir.Taps() - 1
	if warm > len(xs) {
		warm = len(xs)
	}
	return s.Warm(xs[len(xs)-warm:])
}

// ReferencePeriodic is Reference with periodic boundary conditions:
// samples before the record wrap around from its end.
func (f *FIR) ReferencePeriodic(xs []int64) []int64 {
	n := len(xs)
	out := make([]int64, n)
	if n == 0 {
		return out
	}
	for i := range xs {
		var acc int64
		for t, c := range f.Coeffs {
			acc += c * xs[((i-t)%n+n)%n]
		}
		out[i] = acc >> uint(f.DropLSBs)
	}
	return out
}

// Baseline is a fault-free periodic run captured for parallel-pattern
// single-fault propagation: every net's value over the record,
// time-packed, plus the decoded good output record. One capture
// serves every fault of a campaign over the same stimulus (see
// FaultReplay).
type Baseline struct {
	// View is the time-packed net-value view (netlist.Propagator's
	// layout): bit k of View[n*W+w], W = ⌈len(Good)/64⌉, is net n at
	// record step 64w+k.
	View []uint64
	// Good is the decoded fault-free output record.
	Good []int64
}

// BaselineBytes returns the view storage size of a steps-long capture,
// for callers budgeting memory beforehand.
func BaselineBytes(f *FIR, steps int) int {
	return (steps + 63) / 64 * f.Circuit.NumNets() * 8
}

// CaptureBaseline runs xs as one period of a periodic stimulus on the
// fault-free machine, 64 steps per simulator pass (as RunPeriodic
// does), and keeps every pass's net values as the baseline's
// time-packed view.
func (s *FIRSim) CaptureBaseline(xs []int64) (*Baseline, error) {
	base := &Baseline{
		View: make([]uint64, BaselineBytes(s.fir, len(xs))/8),
		Good: make([]int64, len(xs)),
	}
	if err := s.runPacked(xs, base.Good, base.View); err != nil {
		return nil, err
	}
	return base, nil
}

// runPacked is the parallel-pattern good pass behind CaptureBaseline
// and RunPeriodic: it decodes the output record into good and, when
// view is non-nil, copies pass w's net values into word w of each
// net's view row.
func (s *FIRSim) runPacked(xs []int64, good []int64, view []uint64) error {
	if s.sim.HasFaults() {
		return fmt.Errorf("digital: parallel-pattern good pass on a simulator with faults injected")
	}
	warm := min(s.fir.Taps()-1, len(xs))
	for _, x := range xs[len(xs)-warm:] {
		s.shift(x)
	}
	words := (len(xs) + 63) / 64
	width := s.fir.InWidth
	for w := 0; 64*w < len(xs); w++ {
		clear(s.inWords)
		n := min(64, len(xs)-64*w)
		for k := 0; k < n; k++ {
			s.shift(xs[64*w+k])
			for tap, v := range s.delay {
				for bit := 0; bit < width; bit++ {
					s.inWords[tap*width+bit] |= uint64(v>>uint(bit)&1) << uint(k)
				}
			}
		}
		out, err := s.sim.Run(s.inWords)
		if err != nil {
			return err
		}
		for k := 0; k < n; k++ {
			good[64*w+k] = DecodeSignedLane(out, k)
		}
		if view != nil {
			for n, v := range s.sim.Values() {
				view[n*words+w] = v
			}
		}
	}
	return nil
}

// FaultReplay generates single-fault output records from a Baseline
// by parallel-pattern single-fault propagation: the gates each fault
// disturbs are re-evaluated over the baseline's time-packed view, and
// only the output bits that differ from the good record are decoded.
// It holds one netlist.Propagator and the record buffer Record
// writes, and so is per-worker state, not safe for concurrent use.
type FaultReplay struct {
	fir  *FIR
	prop *netlist.Propagator
	// rec is the record buffer; touched[w] bit k marks sample 64w+k
	// as differing from the good record.
	rec     []int64
	touched []uint64
}

// NewFaultReplay returns a replay for f. It fails when the circuit
// does not compile (FIRSim.Compiled reports false).
func NewFaultReplay(f *FIR) (*FaultReplay, error) {
	prop, err := netlist.NewPropagator(f.Circuit)
	if err != nil {
		return nil, err
	}
	return &FaultReplay{fir: f, prop: prop}, nil
}

// Record returns the output record of the machine with fault f over
// the stimulus base was captured from, bit-identical to that fault's
// lane of RunLanesPeriodic, with its first differing sample and its
// largest |faulty - good| difference (fault.DiffStats of base.Good and
// the record). The record is a copy of base.Good in the replay's own
// buffer with only the set bits of each reached output's difference
// words flipped (a flipped output MSB also flips the sign-extension
// bits above it); it is valid until the next Record call. A fault that
// changes no output sample builds no record: Record returns nil, -1
// and 0.
//
// The union of the difference words marks every sample the fault
// touches, so the two statistics are read there alone: a touched
// sample always differs, and the first set bit is the first
// difference.
func (r *FaultReplay) Record(base *Baseline, f netlist.Fault) (rec []int64, firstDiff int, maxAbs int64, err error) {
	steps := len(base.Good)
	outs, diff, err := r.prop.Propagate(base.View, steps, f)
	if err != nil {
		return nil, -1, 0, err
	}
	words := (steps + 63) / 64
	if cap(r.touched) < words {
		r.touched = make([]uint64, words)
	}
	touched := r.touched[:words]
	clear(touched)
	var any uint64
	for j, i := range outs {
		if i >= 64 {
			continue // past the int64 a sample decodes into
		}
		for w, d := range diff[j*words : (j+1)*words] {
			touched[w] |= d
			any |= d
		}
	}
	if any == 0 {
		return nil, -1, 0, nil
	}
	rec = append(r.rec[:0], base.Good...)
	r.rec = rec
	width := len(r.fir.Circuit.Outputs)
	var signExt uint64
	if width < 64 {
		signExt = ^uint64(0) << uint(width)
	}
	for j, i := range outs {
		if i >= 64 {
			continue
		}
		flip := uint64(1) << uint(i)
		if i == width-1 {
			flip |= signExt
		}
		for w, d := range diff[j*words : (j+1)*words] {
			for d != 0 {
				rec[64*w+bits.TrailingZeros64(d)] ^= int64(flip)
				d &= d - 1
			}
		}
	}
	firstDiff = -1
	for w, t := range touched {
		for t != 0 {
			n := 64*w + bits.TrailingZeros64(t)
			t &= t - 1
			d := rec[n] - base.Good[n]
			if d < 0 {
				d = -d
			}
			if d > 0 && firstDiff < 0 {
				firstDiff = n
			}
			maxAbs = max(maxAbs, d)
		}
	}
	return rec, firstDiff, maxAbs, nil
}

// RunLanes processes a whole record and returns one output record per
// requested lane (lanes must be < 64).
func (s *FIRSim) RunLanes(xs []int64, lanes int) ([][]int64, error) {
	if lanes <= 0 || lanes > 64 {
		return nil, fmt.Errorf("digital: lanes %d out of range [1,64]", lanes)
	}
	out := make([][]int64, lanes)
	for l := range out {
		out[l] = make([]int64, len(xs))
	}
	for i, x := range xs {
		words, err := s.Step(x)
		if err != nil {
			return nil, err
		}
		for l := 0; l < lanes; l++ {
			out[l][i] = DecodeSignedLane(words, l)
		}
	}
	return out, nil
}
