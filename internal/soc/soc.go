// Package soc models a mixed-signal system-on-chip as a set of
// wrapped cores behind a shared test-access mechanism (TAM), after
// Sehgal, Liu, Ozev & Chakrabarty's test-planning formulation: each
// core carries a list of tests whose data volumes come from the real
// translate/tolerance machinery (analog cores) or from the quantized
// FIR netlist geometry (digital cores), the wrapper bounds how many
// TAM wires a core can consume, and exclusive tester resources (the
// shared AWG/DAC source and ADC digitizer) serialize the analog tests
// that need them. The resource-constrained scheduler lives in
// schedule.go.
package soc

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"mstx/internal/core"
	"mstx/internal/digital"
	"mstx/internal/dsp"
	"mstx/internal/path"
	"mstx/internal/translate"
)

// Capture geometry shared with the experiments (E7 test-time model):
// every analog capture records captureN samples after captureSettle
// warm-up samples, and costs captureSetup TAM-independent cycles of
// source settling / retargeting (100 us at the 8 MS/s ADC rate).
const (
	captureN      = 4096
	captureSettle = 512
	captureSetup  = 800
)

// Test is one wrapped core test: a payload of Cycles TAM cycles at
// width 1 that shrinks with the wires assigned to it, plus Settle
// cycles of width-independent setup, capped at MaxWidth wires, and
// holding zero or more exclusive tester resources while it runs.
type Test struct {
	// Name identifies the test within its core.
	Name string
	// Cycles is the payload data volume in width-1 TAM cycles.
	Cycles int64
	// Settle is the width-independent setup/settling time in cycles.
	Settle int64
	// MaxWidth caps how many TAM wires the test can use in parallel.
	MaxWidth int
	// Resources are exclusive shared testers (e.g. "awg",
	// "digitizer") held for the whole duration.
	Resources []string
}

// Duration returns the test time in cycles at the given wire count,
// clamped to [1, MaxWidth]: Settle + ceil(Cycles/w).
func (t Test) Duration(w int) int64 {
	if w < 1 {
		w = 1
	}
	if t.MaxWidth >= 1 && w > t.MaxWidth {
		w = t.MaxWidth
	}
	return t.Settle + (t.Cycles+int64(w)-1)/int64(w)
}

// Core is one wrapped core: an ID, a human-readable kind, the wrapper
// parallelisation bound, and its tests. Tests of one core always
// serialize (the wrapper is single-session).
type Core struct {
	// ID is the unique core identifier ("rx-a", "fir-c", ...).
	ID string
	// Name describes the core.
	Name string
	// Kind is "analog" or "digital" (documentation only).
	Kind string
	// WrapperWidth caps the TAM wires the core wrapper can connect.
	WrapperWidth int
	// Tests are the core's tests in declaration order.
	Tests []Test
}

// SOC is the system under test: a named set of wrapped cores sharing
// one TAM and the exclusive tester resources.
type SOC struct {
	// Name identifies the SOC configuration.
	Name string
	// Cores are the wrapped cores in declaration order.
	Cores []Core
}

// Validate checks structural sanity: at least one core, unique
// non-empty core IDs, positive wrapper widths, and per-core unique
// tests with positive volumes and width caps.
func (s *SOC) Validate() error {
	if len(s.Cores) == 0 {
		return fmt.Errorf("soc %q: no cores", s.Name)
	}
	ids := make(map[string]bool, len(s.Cores))
	for _, c := range s.Cores {
		if c.ID == "" {
			return fmt.Errorf("soc %q: core with empty ID", s.Name)
		}
		if ids[c.ID] {
			return fmt.Errorf("soc %q: duplicate core ID %q", s.Name, c.ID)
		}
		ids[c.ID] = true
		if c.WrapperWidth < 1 {
			return fmt.Errorf("soc %q: core %q wrapper width %d must be >= 1", s.Name, c.ID, c.WrapperWidth)
		}
		if len(c.Tests) == 0 {
			return fmt.Errorf("soc %q: core %q has no tests", s.Name, c.ID)
		}
		names := make(map[string]bool, len(c.Tests))
		for _, t := range c.Tests {
			if t.Name == "" {
				return fmt.Errorf("soc %q: core %q has a test with empty name", s.Name, c.ID)
			}
			if names[t.Name] {
				return fmt.Errorf("soc %q: core %q duplicate test %q", s.Name, c.ID, t.Name)
			}
			names[t.Name] = true
			if t.Cycles < 1 {
				return fmt.Errorf("soc %q: test %s/%s cycles %d must be >= 1", s.Name, c.ID, t.Name, t.Cycles)
			}
			if t.Settle < 0 {
				return fmt.Errorf("soc %q: test %s/%s settle %d must be >= 0", s.Name, c.ID, t.Name, t.Settle)
			}
			if t.MaxWidth < 1 {
				return fmt.Errorf("soc %q: test %s/%s max width %d must be >= 1", s.Name, c.ID, t.Name, t.MaxWidth)
			}
		}
	}
	return nil
}

// NumTests counts all tests over all cores.
func (s *SOC) NumTests() int {
	n := 0
	for _, c := range s.Cores {
		n += len(c.Tests)
	}
	return n
}

// Volume sums the width-1 payload cycles over every test — the raw
// TAM data volume of the whole test program.
func (s *SOC) Volume() int64 {
	var v int64
	for _, c := range s.Cores {
		for _, t := range c.Tests {
			v += t.Cycles
		}
	}
	return v
}

// Select returns a sub-SOC restricted to the given core IDs (in the
// SOC's declaration order). Unknown or duplicate IDs are errors; an
// empty list selects every core.
func Select(s *SOC, ids []string) (*SOC, error) {
	if len(ids) == 0 {
		return s, nil
	}
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		if want[id] {
			return nil, fmt.Errorf("soc %q: duplicate core ID %q in selection", s.Name, id)
		}
		want[id] = true
	}
	sub := &SOC{Name: s.Name}
	for _, c := range s.Cores {
		if want[c.ID] {
			sub.Cores = append(sub.Cores, c)
			delete(want, c.ID)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			//mstxvet:ignore determinism unknown IDs are sorted immediately below
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("soc %q: unknown core IDs %v", s.Name, unknown)
	}
	return sub, nil
}

// analogCore synthesizes the translated test plan for the given path
// specification and turns every translatable planned test into a
// wrapped-core test: Captures × captureN samples cross the TAM at
// bitsPerSample bits each, and every capture pays the
// width-independent settle + setup cycles. Propagation tests drive
// the shared AWG while capturing; composition and boundary tests only
// hold the digitizer.
func analogCore(id, name string, spec path.Spec, bitsPerSample int, maxWidth int) (Core, error) {
	syn, err := core.New(spec)
	if err != nil {
		return Core{}, err
	}
	plan, err := syn.Synthesize(nil)
	if err != nil {
		return Core{}, err
	}
	c := Core{ID: id, Name: name, Kind: "analog", WrapperWidth: maxWidth}
	for _, t := range plan.Tests {
		if t.Kind == translate.Direct {
			continue // DFT-required: no tester time on the TAM
		}
		caps := int64(t.Captures)
		res := []string{"digitizer"}
		if t.Kind == translate.Propagation {
			res = []string{"awg", "digitizer"}
		}
		c.Tests = append(c.Tests, Test{
			Name:      string(t.Request.Param),
			Cycles:    caps * captureN * int64(bitsPerSample),
			Settle:    caps * (captureSettle + captureSetup),
			MaxWidth:  maxWidth,
			Resources: res,
		})
	}
	// The three composition boundary captures (small-signal reference,
	// high- and low-amplitude checks) need the AWG for the amplitude
	// extremes.
	bcaps := int64(3)
	c.Tests = append(c.Tests, Test{
		Name:      "boundary",
		Cycles:    bcaps * captureN * int64(bitsPerSample),
		Settle:    bcaps * (captureSettle + captureSetup),
		MaxWidth:  maxWidth,
		Resources: []string{"awg", "digitizer"},
	})
	return c, nil
}

// digitalCore quantizes the given FIR design with the standard E8
// geometry (8 fractional coefficient bits, 12-bit samples, 8 dropped
// LSBs) and derives two scan-free structural tests from the bus
// geometry of the resulting netlist: a stuck-at campaign streaming
// 4096 patterns in and responses out, and a spectral BIST that only
// streams the stimulus (the signature stays on-chip).
func digitalCore(id, name string, taps int, cutoff float64, wrapperWidth int) (Core, error) {
	coeffs, err := digital.DesignLowPassFIR(taps, cutoff, dsp.Hamming)
	if err != nil {
		return Core{}, err
	}
	ints, _, err := digital.QuantizeCoeffs(coeffs, 8)
	if err != nil {
		return Core{}, err
	}
	fir, err := digital.NewFIRTruncated(ints, 12, 8)
	if err != nil {
		return Core{}, err
	}
	const patterns = 4096
	inW, outW := int64(fir.InWidth), int64(fir.OutWidth())
	return Core{
		ID: id, Name: name, Kind: "digital", WrapperWidth: wrapperWidth,
		Tests: []Test{
			{
				Name:     "stuck-at",
				Cycles:   patterns * (inW + outW),
				Settle:   int64(fir.Taps()), // pipeline flush
				MaxWidth: wrapperWidth,
			},
			{
				Name:     "spectral-bist",
				Cycles:   patterns * inW,
				Settle:   int64(fir.Taps()) + 64, // flush + signature readout
				MaxWidth: wrapperWidth,
			},
		},
	}, nil
}

// Default returns the reference SOC: the paper's Amp->Mixer->LPF->ADC
// receive path as a wrapped analog core, the same path with the
// sigma-delta interface alternative (DESIGN.md) whose 1-bit modulator
// stream crosses the TAM at the oversampled rate, and two digital
// FIR cores (the 13-tap path filter and a smaller 9-tap decimator).
// The model is built once per process; every call returns a deep
// copy the caller may mutate.
func Default() (*SOC, error) {
	s, err := reference()
	if err != nil {
		return nil, err
	}
	return s.clone(), nil
}

// reference builds the reference SOC on first use. Its inputs are
// fixed, so the two test-plan syntheses behind the analog cores run
// once per process.
var reference = sync.OnceValues(buildDefault)

// clone deep-copies the SOC: cores, their tests and resource lists.
func (s *SOC) clone() *SOC {
	c := &SOC{Name: s.Name, Cores: slices.Clone(s.Cores)}
	for i := range c.Cores {
		tests := slices.Clone(c.Cores[i].Tests)
		for j := range tests {
			tests[j].Resources = slices.Clone(tests[j].Resources)
		}
		c.Cores[i].Tests = tests
	}
	return c
}

func buildDefault() (*SOC, error) {
	coeffs, err := digital.DesignLowPassFIR(13, 0.18, dsp.Hamming)
	if err != nil {
		return nil, err
	}
	spec := path.DefaultSpec(coeffs)

	// Nyquist interface: every capture ships captureN samples at the
	// ADC word width.
	rxA, err := analogCore("rx-a", "receive path, Nyquist ADC interface", spec, spec.ADC.Bits, spec.ADC.Bits)
	if err != nil {
		return nil, err
	}

	// Sigma-delta interface alternative: the 1-bit modulator stream at
	// OSR x the output rate crosses the TAM instead (decimation
	// happens off-chip on the tester), so each capture is captureN x
	// OSR single-bit cycles behind a narrower wrapper.
	sdSpec := spec
	sdSpec.UseSigmaDelta = true
	osr := int(sdSpec.SimRate / sdSpec.ADCRate)
	if osr < 1 {
		osr = 1
	}
	rxSD, err := analogCore("rx-sd", "receive path, sigma-delta interface", sdSpec, osr, 8)
	if err != nil {
		return nil, err
	}

	firC, err := digitalCore("fir-c", "13-tap channel FIR", 13, 0.18, 16)
	if err != nil {
		return nil, err
	}
	firD, err := digitalCore("fir-d", "9-tap decimation FIR", 9, 0.30, 8)
	if err != nil {
		return nil, err
	}

	s := &SOC{Name: "mstx-soc1", Cores: []Core{rxA, rxSD, firC, firD}}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
