package path

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mstx/internal/adc"
	"mstx/internal/analog"
	"mstx/internal/digital"
	"mstx/internal/msignal"
)

// The reference chain below is the allocate-per-stage capture the
// path simulated with before carrier tables and scratch buffers: each
// stage allocates its output and evaluates every cosine per sample.
// It is kept verbatim (unexported helpers inlined) as the differential
// oracle for Run and RunScratch.

func refRender(s msignal.Signal, n int, fs float64, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		t := float64(i) / fs
		v := s.DC
		for _, tone := range s.Tones {
			v += tone.Amp * math.Cos(2*math.Pi*tone.Freq*t+tone.Phase)
		}
		for _, sp := range s.Spurs {
			v += sp.Amp * math.Cos(2*math.Pi*sp.Freq*t+sp.Phase)
		}
		if rng != nil && s.NoiseRMS > 0 {
			v += rng.NormFloat64() * s.NoiseRMS
		}
		out[i] = v
	}
	return out
}

func refAmp(a *analog.Amplifier, x []float64, fs float64, rng *rand.Rand) []float64 {
	nl := analog.NewNonlinearity(a.Gain(), a.IIP3DBm, a.P1dBDBm)
	nIn := analog.NoiseRMSFromNF(a.NFDB, fs/2)
	out := make([]float64, len(x))
	for i, v := range x {
		if rng != nil && nIn > 0 {
			v += rng.NormFloat64() * nIn
		}
		out[i] = nl.Apply(v) + a.OffsetV
	}
	return out
}

func refPhases(o *analog.Oscillator, n int, fs float64, rng *rand.Rand) []float64 {
	th := make([]float64, n)
	var jitter float64
	w := 2 * math.Pi * o.FreqHz / fs
	for i := range th {
		if rng != nil && o.Spec.PhaseNoiseRadPerSample > 0 {
			jitter += rng.NormFloat64() * o.Spec.PhaseNoiseRadPerSample
		}
		th[i] = w*float64(i) + jitter
	}
	return th
}

func refMixer(m *analog.Mixer, x []float64, fs float64, rng *rand.Rand) []float64 {
	nl := analog.NewNonlinearity(1, m.IIP3DBm, m.P1dBDBm)
	g := m.ConvGain()
	nIn := analog.NoiseRMSFromNF(m.NFDB, fs/2)
	leak := m.Spec.LODriveAmpV / math.Pow(10, m.LOIsolationDB/20)
	th := refPhases(m.LO, len(x), fs, rng)
	out := make([]float64, len(x))
	for i, v := range x {
		if rng != nil && nIn > 0 {
			v += rng.NormFloat64() * nIn
		}
		rf := nl.Apply(v)
		out[i] = 2*g*rf*math.Cos(th[i]) + leak*math.Cos(th[i])
	}
	return out
}

func refLPF(l *analog.LowPass, x []float64, fs float64, rng *rand.Rand) []float64 {
	fc := l.CutoffHz
	if fc >= 0.49*fs {
		fc = 0.49 * fs
	}
	k := math.Tan(math.Pi * fc / fs)
	norm := 1 / (1 + math.Sqrt2*k + k*k)
	b0 := k * k * norm
	b1 := 2 * b0
	b2 := b0
	a1 := 2 * (k*k - 1) * norm
	a2 := (1 - math.Sqrt2*k + k*k) * norm
	g := l.Gain()
	out := make([]float64, len(x))
	var x1, x2, y1, y2 float64
	wClk := 2 * math.Pi * l.Spec.ClockHz / fs
	for i, v := range x {
		y := b0*v + b1*x1 + b2*x2 - a1*y1 - a2*y2
		x2, x1 = x1, v
		y2, y1 = y1, y
		o := g*y + l.OffsetV
		if l.Spec.ClockSpurV > 0 {
			o += l.Spec.ClockSpurV * math.Cos(wClk*float64(i))
		}
		if rng != nil && l.Spec.OutputNoiseRMS > 0 {
			o += rng.NormFloat64() * l.Spec.OutputNoiseRMS
		}
		out[i] = o
	}
	return out
}

func refRun(p *Path, stim msignal.Signal, n int, rng *rand.Rand) (*Capture, error) {
	decim := p.Decim()
	nSim := n * decim
	x := refRender(stim, nSim, p.Spec.SimRate, rng)
	a := refAmp(p.Amp, x, p.Spec.SimRate, rng)
	m := refMixer(p.Mixer, a, p.Spec.SimRate, rng)
	f := refLPF(p.LPF, m, p.Spec.SimRate, rng)
	held := make([]float64, n)
	if p.Spec.UseSigmaDelta {
		sd, err := adc.NewSigmaDelta(p.Spec.ADC.FullScaleV, decim)
		if err != nil {
			return nil, err
		}
		sd.IntegratorLeak = p.Spec.SigmaDeltaLeak
		copy(held, sd.ConvertOversampled(f, rng))
	} else {
		for i := 0; i < n; i++ {
			held[i] = f[i*decim]
		}
	}
	codes := p.ADC.Convert(held, rng)
	lsb := p.ADC.LSB()
	volts := make([]float64, n)
	for i, c := range codes {
		volts[i] = float64(c) * lsb
	}
	out := digital.FilterFloat(p.Spec.FilterCoeffs, volts)
	return &Capture{ADCIn: f, Codes: codes, FilterOut: out}, nil
}

// sameCapture reports the first sample where got and want differ bit
// for bit.
func sameCapture(got, want *Capture) error {
	if len(got.ADCIn) != len(want.ADCIn) || len(got.Codes) != len(want.Codes) ||
		len(got.FilterOut) != len(want.FilterOut) {
		return fmt.Errorf("lengths %d/%d/%d, want %d/%d/%d",
			len(got.ADCIn), len(got.Codes), len(got.FilterOut),
			len(want.ADCIn), len(want.Codes), len(want.FilterOut))
	}
	for i := range want.ADCIn {
		if math.Float64bits(got.ADCIn[i]) != math.Float64bits(want.ADCIn[i]) {
			return fmt.Errorf("ADCIn[%d] = %x, want %x", i, got.ADCIn[i], want.ADCIn[i])
		}
	}
	for i := range want.Codes {
		if got.Codes[i] != want.Codes[i] {
			return fmt.Errorf("Codes[%d] = %d, want %d", i, got.Codes[i], want.Codes[i])
		}
	}
	for i := range want.FilterOut {
		if math.Float64bits(got.FilterOut[i]) != math.Float64bits(want.FilterOut[i]) {
			return fmt.Errorf("FilterOut[%d] = %x, want %x", i, got.FilterOut[i], want.FilterOut[i])
		}
	}
	return nil
}

// randomStimulus draws a stimulus of one of the shapes the measurement
// procedures apply, chosen by kind mod 4: a single tone, a two-tone, a
// bare DC level, or a tone with spurs and noise.
func randomStimulus(rng *rand.Rand, lo float64, kind int) msignal.Signal {
	rf := func() float64 { return lo + 100e3 + rng.Float64()*2.5e6 }
	amp := func() float64 { return 0.001 + rng.Float64()*0.2 }
	switch kind % 4 {
	case 0:
		s := msignal.NewTone(rf(), amp())
		s.Tones[0].Phase = rng.Float64() * 2 * math.Pi
		return s
	case 1:
		return msignal.NewTwoTone(rf(), rf(), amp()/2)
	case 2:
		return msignal.Signal{DC: (rng.Float64() - 0.5) * 0.01}
	default:
		s := msignal.NewTone(rf(), amp())
		s.Spurs = []msignal.Tone{{Freq: rf(), Amp: 1e-4, Phase: 1}, {Freq: 3 * rf(), Amp: 2e-5}}
		s.NoiseRMS = 1e-4
		s.DC = 2e-3
		return s
	}
}

// fillTables fills the process-wide carrier set up to its byte cap
// with filler tables of length n, so that a later publish evicts.
func fillTables(n int) {
	for f := 1.0; ; f++ {
		room := (msignal.TableSetBytes - msignal.SharedTables().Bytes) / 8
		if room == 0 {
			return
		}
		new(msignal.CosTable).Cosines(msignal.ToneExpr, f, 0, 1e3, min(n, room))
	}
}

// TestRunScratchMatchesReference is the differential test of the
// table-driven, buffer-reusing simulation against the allocating
// reference chain: random sampled devices and stimuli, with and
// without noise draws, LO phase noise and the sigma-delta converter,
// one scratch reused across every capture of a device, and the
// one-shot Run — all compared bit for bit. Every scratch reads the
// process-wide table set; the test runs twice, first on the set as
// other captures left it (tables published by earlier devices are
// shared), then on the set filled to its byte cap, where every
// publish evicts.
func TestRunScratchMatchesReference(t *testing.T) {
	const n = 192
	for pass, atCap := range []bool{false, true} {
		before := msignal.SharedTables()
		if atCap {
			fillTables(n * 8)
			before = msignal.SharedTables()
		}
		gen := rand.New(rand.NewSource(int64(2024 + pass)))
		for dev := 0; dev < 8; dev++ {
			spec := testSpec(t)
			if dev%2 == 1 {
				spec.LO.PhaseNoiseRadPerSample = 0
			}
			if dev%4 >= 2 {
				spec.UseSigmaDelta = true
				spec.SigmaDeltaLeak = 1e-3
			}
			p, err := spec.Sample(rand.New(rand.NewSource(int64(100 + dev))))
			if err != nil {
				t.Fatal(err)
			}
			var sc Scratch
			var stim msignal.Signal
			for k := 0; k < 6; k++ {
				if k%3 == 2 {
					// A sweep step: same tones at a new level, so the
					// cached tone tables are hit.
					stim = stim.Scale(1.3)
				} else {
					stim = randomStimulus(gen, spec.LO.FreqHz.Nominal, dev+k)
				}
				seeded := k%2 == 1
				name := fmt.Sprintf("atCap=%v/dev%d/capture%d/pn=%g/sd=%v/seeded=%v",
					atCap, dev, k, spec.LO.PhaseNoiseRadPerSample, spec.UseSigmaDelta, seeded)
				rngs := func() (*rand.Rand, *rand.Rand) {
					if !seeded {
						return nil, nil
					}
					seed := int64(dev*100 + k)
					return rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				}
				rRef, rGot := rngs()
				want, err := refRun(p, stim, n, rRef)
				if err != nil {
					t.Fatal(err)
				}
				got, err := p.RunScratch(stim, n, rGot, &sc)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameCapture(got, want); err != nil {
					t.Fatalf("%s: RunScratch: %v", name, err)
				}
				_, rGot = rngs()
				fresh, err := p.Run(stim, n, rGot)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameCapture(fresh, want); err != nil {
					t.Fatalf("%s: Run: %v", name, err)
				}
			}
		}
		after := msignal.SharedTables()
		if after.Published == before.Published {
			t.Fatalf("atCap=%v: no capture published a table", atCap)
		}
		if atCap && after.Evicted == before.Evicted {
			t.Fatal("no capture evicted a table from the set at its cap")
		}
	}
}

// TestRunScratchCatchesStaleTables mutates the device between captures
// on one scratch — the LO frequency, the SC clock, the capture length,
// and a switch between jittered and jitter-free LO carriers — so a
// table served under a stale key would show as a bit difference. A
// second scratch runs the same steps, reading the tables the first
// published to the process-wide set.
func TestRunScratchCatchesStaleTables(t *testing.T) {
	spec := testSpec(t)
	p, err := spec.Sample(rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	stim := msignal.NewTone(spec.LO.FreqHz.Nominal+900e3, 0.01)
	scs := []*Scratch{new(Scratch), new(Scratch)}
	steps := []struct {
		name   string
		mutate func()
		n      int
		seeded bool
	}{
		{"warm", func() {}, 128, false},
		{"lo-freq", func() { p.LO.FreqHz += 1234.5 }, 128, false},
		{"clock", func() { p.LPF.Spec.ClockHz = 13.25e6 }, 128, false},
		{"length", func() {}, 160, false},
		{"jittered", func() {}, 160, true},
		{"jitter-free-again", func() {}, 160, false},
		{"lo-freq-back", func() { p.LO.FreqHz -= 1234.5 }, 160, false},
		{"tone-phase", func() { stim.Tones[0].Phase = 0.5 }, 160, false},
		{"tone-freq", func() { stim.Tones[0].Freq += 50e3 }, 160, false},
	}
	for i, st := range steps {
		st.mutate()
		for j, sc := range scs {
			var rRef, rGot *rand.Rand
			if st.seeded {
				rRef, rGot = rand.New(rand.NewSource(int64(i))), rand.New(rand.NewSource(int64(i)))
			}
			want, err := refRun(p, stim, st.n, rRef)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.RunScratch(stim, st.n, rGot, sc)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameCapture(got, want); err != nil {
				t.Fatalf("step %s, scratch %d: %v", st.name, j, err)
			}
		}
	}
}

// TestRunReturnsFreshSlices pins that Run's capture never aliases a
// later capture's memory, unlike RunScratch's.
func TestRunReturnsFreshSlices(t *testing.T) {
	p, err := testSpec(t).Build()
	if err != nil {
		t.Fatal(err)
	}
	stim := msignal.NewTone(p.Spec.LO.FreqHz.Nominal+900e3, 0.01)
	a, err := p.Run(stim, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	keep := append([]float64(nil), a.FilterOut...)
	if _, err := p.Run(msignal.NewTone(p.Spec.LO.FreqHz.Nominal+300e3, 0.05), 64, nil); err != nil {
		t.Fatal(err)
	}
	for i := range keep {
		if math.Float64bits(a.FilterOut[i]) != math.Float64bits(keep[i]) {
			t.Fatalf("FilterOut[%d] changed after a second Run", i)
		}
	}
	if _, err := p.RunScratch(stim, 0, nil, new(Scratch)); err == nil {
		t.Error("RunScratch accepted a zero-length capture")
	}
}
