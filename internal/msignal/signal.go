// Package msignal models test signals the way the paper's translation
// scheme does: not as waveforms, but as a small set of attributes —
// the tones (frequency, amplitude, phase), the DC level, the noise
// level, and the *accuracy* (uncertainty) of each attribute — that are
// tracked while the signal is propagated through the modules of a
// mixed-signal path. The package can also render an attribute model to
// a time-domain sample record for the simulation substrate.
package msignal

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Tone is one sinusoidal component of a multi-tone test signal.
type Tone struct {
	// Freq is the tone frequency in Hz.
	Freq float64
	// Amp is the sine amplitude (volts).
	Amp float64
	// Phase is the phase in radians at t=0.
	Phase float64
}

// Signal is the attribute model of a test signal at one point in a
// signal path. It is a value type: propagation through a block returns
// a new Signal, leaving the input unchanged.
type Signal struct {
	// Tones are the deliberate sinusoidal components (up to 2 in the
	// paper's methodology; the model accepts any number).
	Tones []Tone
	// DC is the DC level in volts.
	DC float64
	// NoiseRMS is the total RMS noise accumulated so far (volts).
	NoiseRMS float64
	// Spurs are non-stimulus deterministic components picked up along
	// the way: harmonics, intermodulation products, clock feed-through,
	// LO leakage. They degrade the usable dynamic range of a test.
	Spurs []Tone
	// AmpAccuracy is the relative 1σ uncertainty of the tone
	// amplitudes (e.g. 0.05 = ±5%), accumulated from the gain
	// tolerances of traversed blocks.
	AmpAccuracy float64
	// FreqAccuracy is the relative 1σ uncertainty of tone frequencies
	// (driven by LO frequency error when mixing).
	FreqAccuracy float64
	// PhaseAccuracy is the absolute 1σ phase uncertainty in radians.
	PhaseAccuracy float64
	// DCAccuracy is the absolute 1σ uncertainty of the DC level, volts.
	DCAccuracy float64
}

// NewTone returns a single-tone signal with the given frequency and
// amplitude and zero phase.
func NewTone(freq, amp float64) Signal {
	return Signal{Tones: []Tone{{Freq: freq, Amp: amp}}}
}

// NewTwoTone returns the classic two-tone test stimulus with equal
// per-tone amplitude amp at f1 and f2.
func NewTwoTone(f1, f2, amp float64) Signal {
	return Signal{Tones: []Tone{{Freq: f1, Amp: amp}, {Freq: f2, Amp: amp}}}
}

// NewMultiTone returns a signal with one tone of amplitude amp at each
// of the given frequencies.
func NewMultiTone(amp float64, freqs ...float64) Signal {
	s := Signal{}
	for _, f := range freqs {
		s.Tones = append(s.Tones, Tone{Freq: f, Amp: amp})
	}
	return s
}

// Clone returns a deep copy of s.
func (s Signal) Clone() Signal {
	out := s
	out.Tones = append([]Tone(nil), s.Tones...)
	out.Spurs = append([]Tone(nil), s.Spurs...)
	return out
}

// Validate checks the physical plausibility of the attribute model.
func (s Signal) Validate() error {
	for i, t := range s.Tones {
		if t.Freq < 0 {
			return fmt.Errorf("msignal: tone %d has negative frequency %g", i, t.Freq)
		}
		if t.Amp < 0 {
			return fmt.Errorf("msignal: tone %d has negative amplitude %g", i, t.Amp)
		}
	}
	if s.NoiseRMS < 0 {
		return fmt.Errorf("msignal: negative noise RMS %g", s.NoiseRMS)
	}
	if s.AmpAccuracy < 0 || s.FreqAccuracy < 0 || s.PhaseAccuracy < 0 || s.DCAccuracy < 0 {
		return fmt.Errorf("msignal: negative accuracy")
	}
	return nil
}

// PeakAmplitude returns the worst-case peak of the deliberate signal:
// the sum of tone amplitudes plus |DC| (spurs excluded). The composite
// amplitude of a multi-tone signal governs saturation checks.
func (s Signal) PeakAmplitude() float64 {
	sum := math.Abs(s.DC)
	for _, t := range s.Tones {
		sum += t.Amp
	}
	return sum
}

// SignalPower returns the mean-square power of the deliberate tones
// (Σ A²/2), excluding DC, noise and spurs.
func (s Signal) SignalPower() float64 {
	var p float64
	for _, t := range s.Tones {
		p += t.Amp * t.Amp / 2
	}
	return p
}

// SpurPower returns the mean-square power of all tracked spurs.
func (s Signal) SpurPower() float64 {
	var p float64
	for _, t := range s.Spurs {
		p += t.Amp * t.Amp / 2
	}
	return p
}

// SNR returns the signal-to-noise ratio in dB. Spurs are not counted
// as noise; use SNDR for the combined figure.
func (s Signal) SNR() float64 {
	n := s.NoiseRMS * s.NoiseRMS
	if n <= 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(s.SignalPower()/n)
}

// SNDR returns signal over noise-plus-spurs in dB.
func (s Signal) SNDR() float64 {
	n := s.NoiseRMS*s.NoiseRMS + s.SpurPower()
	if n <= 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(s.SignalPower()/n)
}

// SFDR returns the spurious-free dynamic range in dB: the weakest
// deliberate tone over the strongest spur. +Inf when no spurs are
// tracked.
func (s Signal) SFDR() float64 {
	if len(s.Tones) == 0 {
		return math.Inf(-1)
	}
	minTone := math.Inf(1)
	for _, t := range s.Tones {
		if t.Amp < minTone {
			minTone = t.Amp
		}
	}
	var maxSpur float64
	for _, t := range s.Spurs {
		if t.Amp > maxSpur {
			maxSpur = t.Amp
		}
	}
	if maxSpur <= 0 {
		return math.Inf(1)
	}
	return 20 * math.Log10(minTone/maxSpur)
}

// MinDetectableAmplitude returns the smallest tone amplitude that stays
// margin dB above the tracked noise in a measurement bandwidth of
// bw Hz out of total noise bandwidth totalBW Hz. Tests that need
// amplitudes below this are untranslatable by propagation (the paper's
// minimum detectable signal limit) and must fall back to DFT.
func (s Signal) MinDetectableAmplitude(marginDB, bw, totalBW float64) float64 {
	if totalBW <= 0 || bw <= 0 {
		return 0
	}
	noiseInBand := s.NoiseRMS * math.Sqrt(bw/totalBW)
	return noiseInBand * math.Sqrt(2) * math.Pow(10, marginDB/20)
}

// Scale returns the signal with every tone amplitude, spur amplitude,
// the DC level and the noise multiplied by voltage gain g (g may come
// from a block's nominal gain). Accuracies are relative so they are
// unchanged by an exactly-known scale factor.
func (s Signal) Scale(g float64) Signal {
	out := s.Clone()
	for i := range out.Tones {
		out.Tones[i].Amp *= math.Abs(g)
	}
	for i := range out.Spurs {
		out.Spurs[i].Amp *= math.Abs(g)
	}
	out.DC *= g
	out.NoiseRMS *= math.Abs(g)
	out.DCAccuracy *= math.Abs(g)
	return out
}

// ScaleWithTolerance is Scale plus accumulation of the gain's relative
// 1σ tolerance into the amplitude accuracy (root-sum-square, since
// block tolerances are independent).
func (s Signal) ScaleWithTolerance(g, relTol float64) Signal {
	out := s.Scale(g)
	out.AmpAccuracy = rss(out.AmpAccuracy, relTol)
	return out
}

// AddNoise returns the signal with additional independent noise of the
// given RMS added (powers add).
func (s Signal) AddNoise(rms float64) Signal {
	out := s.Clone()
	out.NoiseRMS = math.Sqrt(out.NoiseRMS*out.NoiseRMS + rms*rms)
	return out
}

// AddDC returns the signal with the DC level shifted by v and the DC
// uncertainty grown by the block's 1σ offset spread sigma.
func (s Signal) AddDC(v, sigma float64) Signal {
	out := s.Clone()
	out.DC += v
	out.DCAccuracy = rss(out.DCAccuracy, sigma)
	return out
}

// AddSpur records an additional deterministic spur component.
func (s Signal) AddSpur(freq, amp float64) Signal {
	out := s.Clone()
	out.Spurs = append(out.Spurs, Tone{Freq: freq, Amp: amp})
	return out
}

// Translate returns the signal with every tone and spur frequency
// shifted by delta Hz (negative frequencies fold back as |f|), as a
// mixer's difference product does, accumulating the LO's relative
// frequency uncertainty.
func (s Signal) Translate(delta, freqRelTol float64) Signal {
	out := s.Clone()
	for i := range out.Tones {
		out.Tones[i].Freq = math.Abs(out.Tones[i].Freq + delta)
	}
	for i := range out.Spurs {
		out.Spurs[i].Freq = math.Abs(out.Spurs[i].Freq + delta)
	}
	out.FreqAccuracy = rss(out.FreqAccuracy, freqRelTol)
	return out
}

// ShiftPhase returns the signal with phase added to every tone and the
// phase uncertainty grown by sigma radians.
func (s Signal) ShiftPhase(phase, sigma float64) Signal {
	out := s.Clone()
	for i := range out.Tones {
		out.Tones[i].Phase += phase
	}
	out.PhaseAccuracy = rss(out.PhaseAccuracy, sigma)
	return out
}

// rss is the root-sum-square accumulation of independent 1σ errors.
func rss(a, b float64) float64 {
	return math.Sqrt(a*a + b*b)
}

// Render produces n time-domain samples of the signal at sample rate
// fs. Noise is generated from rng when non-nil (pass nil for the
// noiseless deliberate waveform). Spurs are rendered too — they are
// physically present at the node the attributes describe.
func (s Signal) Render(n int, fs float64, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	s.RenderInto(out, fs, rng, nil)
	return out
}

// RenderInto is Render writing len(dst) samples into dst. Component j
// of the signal (the tones in order, then the spurs) takes its cosines
// from table j of c, so a capture sweep that re-renders the same tones
// evaluates each cosine once; a nil c uses fresh tables. Each sample
// is accumulated in Render's order — DC, tones, spurs, noise — so the
// result is bit-identical to Render, and rng is drawn the same way.
func (s Signal) RenderInto(dst []float64, fs float64, rng *rand.Rand, c *Carriers) {
	if c == nil {
		c = new(Carriers)
	}
	for i := range dst {
		dst[i] = s.DC
	}
	j := 0
	for _, comp := range [2][]Tone{s.Tones, s.Spurs} {
		for _, tone := range comp {
			tab := c.table(j, tone, fs, len(dst))
			for i := range dst {
				dst[i] += tone.Amp * tab[i]
			}
			j++
		}
	}
	if rng != nil && s.NoiseRMS > 0 {
		for i := range dst {
			dst[i] += rng.NormFloat64() * s.NoiseRMS
		}
	}
}

// CosTable caches one carrier's per-sample cosines under the exact
// inputs that produced them: two carrier parameters (a frequency and
// a phase, or a frequency and zero), the sample rate and the length,
// compared bit for bit. The zero value is an empty table.
type CosTable struct {
	key  [3]uint64
	ok   bool
	vals []float64
}

// Lookup returns a length-n buffer and whether it already holds the
// samples for (a, b, fs). On a miss the table records the new key and
// the caller must fill the buffer before the next Lookup.
func (t *CosTable) Lookup(a, b, fs float64, n int) ([]float64, bool) {
	key := [3]uint64{math.Float64bits(a), math.Float64bits(b), math.Float64bits(fs)}
	if t.ok && t.key == key && len(t.vals) == n {
		return t.vals, true
	}
	t.key, t.ok = key, true
	return t.resize(n), false
}

// Reset forgets the cached key and returns a length-n buffer for a
// one-off fill that no key describes (an LO carrier with drawn phase
// noise), so the next Lookup refills.
func (t *CosTable) Reset(n int) []float64 {
	t.ok = false
	return t.resize(n)
}

func (t *CosTable) resize(n int) []float64 {
	if cap(t.vals) < n {
		t.vals = make([]float64, n)
	}
	t.vals = t.vals[:n]
	return t.vals
}

// Carriers is RenderInto's tone-table cache: one CosTable per signal
// component position. It is not safe for concurrent use — keep one per
// goroutine. The zero value is ready to use.
type Carriers struct {
	tabs []CosTable
}

// table returns the cosines of component j, filling its table on a
// key miss. The fill expression fixes every rendered bit (the goldens
// depend on it), so it must not be rewritten, e.g. as a recurrence.
func (c *Carriers) table(j int, tone Tone, fs float64, n int) []float64 {
	for len(c.tabs) <= j {
		c.tabs = append(c.tabs, CosTable{})
	}
	tab, hit := c.tabs[j].Lookup(tone.Freq, tone.Phase, fs, n)
	if !hit {
		for i := range tab {
			t := float64(i) / fs
			tab[i] = math.Cos(2*math.Pi*tone.Freq*t + tone.Phase)
		}
	}
	return tab
}

// Frequencies returns the deliberate tone frequencies in ascending
// order.
func (s Signal) Frequencies() []float64 {
	fs := make([]float64, len(s.Tones))
	for i, t := range s.Tones {
		fs[i] = t.Freq
	}
	sort.Float64s(fs)
	return fs
}

// String summarizes the attribute model for logs and reports.
func (s Signal) String() string {
	var b strings.Builder
	b.WriteString("signal{")
	for i, t := range s.Tones {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4gHz@%.4gV", t.Freq, t.Amp)
	}
	if s.DC != 0 {
		fmt.Fprintf(&b, ", dc=%.4gV", s.DC)
	}
	if s.NoiseRMS > 0 {
		fmt.Fprintf(&b, ", noise=%.3gVrms", s.NoiseRMS)
	}
	if len(s.Spurs) > 0 {
		fmt.Fprintf(&b, ", %d spurs", len(s.Spurs))
	}
	if s.AmpAccuracy > 0 {
		fmt.Fprintf(&b, ", ±%.2g%% amp", s.AmpAccuracy*100)
	}
	b.WriteString("}")
	return b.String()
}
