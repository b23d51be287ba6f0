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

// Compiled reports whether the underlying simulator supports
// cone-differential replay (RunLanesCone).
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

// Step shifts x into the delay line, evaluates the netlist, and
// returns the per-lane outputs. The returned slice is reused by the
// next Step; callers keeping results must copy. x is saturated to the
// input width.
func (s *FIRSim) Step(x int64) ([]uint64, error) {
	copy(s.delay[1:], s.delay[:len(s.delay)-1])
	s.delay[0] = Saturate(x, s.fir.InWidth)
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
func (s *FIRSim) RunPeriodic(xs []int64) ([]int64, error) {
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

// Baseline is a fault-free periodic run captured for differential
// replay: a bit-packed net-value snapshot of every record step plus
// the decoded good output record. One capture serves every fault batch
// of a campaign over the same stimulus (see RunLanesCone). The
// fault-free machine broadcasts its inputs to all lanes, so every net
// word is all-zeros or all-ones and one bit per net loses nothing —
// and a whole record's snapshots stay cache-resident while dozens of
// batches replay against them.
type Baseline struct {
	// Snaps[t] holds the packed net values at record step t
	// (netlist.SnapshotBits layout).
	Snaps [][]uint64
	// Good is the decoded fault-free output record.
	Good []int64
}

// BaselineBytes returns the snapshot storage size of a steps-long
// capture, for callers budgeting memory beforehand.
func BaselineBytes(f *FIR, steps int) int {
	return steps * netlist.BitWords(f.Circuit.NumNets()) * 8
}

// CaptureBaseline runs xs as one period of a periodic stimulus on the
// fault-free machine (faults must not be injected on this simulator)
// and records the per-step net-value snapshots and the good output
// record.
func (s *FIRSim) CaptureBaseline(xs []int64) (*Baseline, error) {
	if err := s.warmTail(xs); err != nil {
		return nil, err
	}
	bw := netlist.BitWords(s.fir.Circuit.NumNets())
	backing := make([]uint64, len(xs)*bw)
	base := &Baseline{
		Snaps: make([][]uint64, len(xs)),
		Good:  make([]int64, len(xs)),
	}
	for i, x := range xs {
		words, err := s.Step(x)
		if err != nil {
			return nil, err
		}
		snap := backing[i*bw : (i+1)*bw]
		s.sim.SnapshotBits(snap)
		base.Snaps[i] = snap
		base.Good[i] = DecodeSignedLane(words, 0)
	}
	return base, nil
}

// RunLanesCone is RunLanesPeriodic replayed differentially against a
// baseline captured from the same stimulus: per step only the fanout
// cone of the injected faults is re-evaluated, and only the bits where
// a lane's cone outputs differ from the good output are decoded. Every
// lane starts as a copy of the good record; at each step each cone
// output word is XORed against that output's broadcast good bit, and
// only the set bits in lanes 1..lanes-1 are visited, flipping that bit
// (and, for the output MSB, the sign-extension bits) in that lane.
// Most lanes differ from the good machine in a few bits on a few
// steps, so the decode costs what the faults change, not lanes ×
// outputs. The returned records are bit-identical to
// RunLanesPeriodic's. Inject faults before calling.
func (s *FIRSim) RunLanesCone(base *Baseline, lanes int) ([][]int64, error) {
	if lanes <= 0 || lanes > 64 {
		return nil, fmt.Errorf("digital: lanes %d out of range [1,64]", lanes)
	}
	cone := s.sim.BuildCone()
	if cone == nil {
		return nil, fmt.Errorf("digital: circuit not compiled for cone replay")
	}
	steps := len(base.Snaps)
	out := make([][]int64, lanes)
	for l := range out {
		out[l] = append([]int64(nil), base.Good...)
	}
	outNets := s.fir.Circuit.Outputs
	width := len(outNets)
	// signExt is what a flipped output MSB also toggles in a decoded
	// sample: every bit above it.
	var signExt uint64
	if width < 64 {
		signExt = ^uint64(0) << uint(width)
	}
	laneMask := ^uint64(0) >> uint(64-lanes) &^ 1
	for t := 0; t < steps; t++ {
		s.sim.RunCone(cone, base.Snaps[t])
		good := uint64(base.Good[t])
		for _, i := range cone.OutputIndices() {
			if i >= 64 {
				continue // past the int64 a sample decodes into
			}
			flip := uint64(1) << uint(i)
			if i == width-1 {
				flip |= signExt
			}
			diff := s.sim.Value(outNets[i]) & laneMask
			if good>>uint(i)&1 == 1 {
				diff ^= laneMask // lanes differ where the word is 0
			}
			for diff != 0 {
				out[bits.TrailingZeros64(diff)][t] ^= int64(flip)
				diff &= diff - 1
			}
		}
	}
	return out, nil
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
