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
	"sync"
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
// evaluates each cosine once (and reads the process-wide set on a
// miss); a nil c uses fresh private tables. Each sample is accumulated
// in Render's order — DC, tones, spurs, noise — so the result is
// bit-identical to Render, and rng is drawn the same way.
func (s Signal) RenderInto(dst []float64, fs float64, rng *rand.Rand, c *Carriers) {
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

// Expr names the expression that fills a carrier table. The fill
// expression fixes every rendered bit (the goldens depend on it), so
// neither may be rewritten, e.g. as a recurrence; and because the two
// round differently, a table's key includes the expression that made
// it.
type Expr uint8

const (
	// ToneExpr is a tone of frequency a and phase b:
	// cos(2π·a·(i/fs) + b), as Render evaluates it.
	ToneExpr Expr = iota + 1
	// ClockExpr is a zero-phase carrier of frequency a (b is 0):
	// cos((2π·a/fs)·i), as the SC clock feed-through and a jitter-free
	// LO evaluate it.
	ClockExpr
)

// fill writes the expression's cosines for (a, b, fs) into dst.
func (e Expr) fill(dst []float64, a, b, fs float64) {
	switch e {
	case ToneExpr:
		for i := range dst {
			t := float64(i) / fs
			dst[i] = math.Cos(2*math.Pi*a*t + b)
		}
	case ClockExpr:
		w := 2 * math.Pi * a / fs
		for i := range dst {
			dst[i] = math.Cos(w * float64(i))
		}
	default:
		panic(fmt.Sprintf("msignal: unknown carrier expression %d", e))
	}
}

// tableKey identifies a carrier table by the exact bits of its inputs,
// its length and the expression that filled it.
type tableKey struct {
	expr     Expr
	a, b, fs uint64
	n        int
}

// CosTable caches one carrier's per-sample cosines under the exact
// inputs that produced them. The current table is either the
// CosTable's own buffer or a table borrowed from the process-wide
// set; a borrowed table is never written, so a later private fill or
// Reset writes the own buffer instead. The zero value is an empty
// table.
type CosTable struct {
	key  tableKey
	ok   bool
	vals []float64 // the current table: own[:n] or a borrowed one
	own  []float64
}

// Cosines returns the length-n table of expression e at (a, b, fs),
// looking further only on a key miss. On a miss the table is borrowed
// from the process-wide set when the set holds it; otherwise it is
// filled into a new buffer and published to the set, which keeps the
// first table published under a key. A table longer than the set's
// byte cap is filled into the own buffer instead. Every path yields
// the same bits.
func (t *CosTable) Cosines(e Expr, a, b, fs float64, n int) []float64 {
	k := tableKey{expr: e, a: math.Float64bits(a), b: math.Float64bits(b), fs: math.Float64bits(fs), n: n}
	if t.current(k) {
		return t.vals
	}
	if 8*n > TableSetBytes {
		return t.fillOwn(e, a, b, fs, n)
	}
	set := processTables
	if tab := set.lookup(k); tab != nil {
		t.vals = tab
		return tab
	}
	tab := make([]float64, n)
	e.fill(tab, a, b, fs)
	t.vals = set.publish(k, tab)
	return t.vals
}

// PrivateCosines is Cosines without the process-wide set: a key miss
// fills the own buffer. It is for a carrier whose inputs are drawn per
// device (the LO), which no other capture would read from the set.
func (t *CosTable) PrivateCosines(e Expr, a, b, fs float64, n int) []float64 {
	k := tableKey{expr: e, a: math.Float64bits(a), b: math.Float64bits(b), fs: math.Float64bits(fs), n: n}
	if t.current(k) {
		return t.vals
	}
	return t.fillOwn(e, a, b, fs, n)
}

// current reports whether the current table is k's; if not, k becomes
// the key the caller fills next.
func (t *CosTable) current(k tableKey) bool {
	if t.ok && t.key == k {
		return true
	}
	t.key, t.ok = k, true
	return false
}

func (t *CosTable) fillOwn(e Expr, a, b, fs float64, n int) []float64 {
	t.vals = t.resize(n)
	e.fill(t.vals, a, b, fs)
	return t.vals
}

// Reset forgets the cached key and returns the own buffer at length n
// for a one-off fill that no key describes (an LO carrier with drawn
// phase noise), so the next Cosines refills.
func (t *CosTable) Reset(n int) []float64 {
	t.ok = false
	t.vals = t.resize(n)
	return t.vals
}

func (t *CosTable) resize(n int) []float64 {
	if cap(t.own) < n {
		t.own = make([]float64, n)
	}
	t.own = t.own[:n]
	return t.own
}

// Carriers is RenderInto's tone-table cache: one CosTable per signal
// component position, each reading the process-wide set on a key
// miss. It is not safe for concurrent use — keep one per goroutine.
// The zero value is ready to use; a nil *Carriers fills fresh private
// tables.
type Carriers struct {
	tabs []CosTable
}

// table returns the cosines of component j.
func (c *Carriers) table(j int, tone Tone, fs float64, n int) []float64 {
	if c == nil {
		return new(CosTable).PrivateCosines(ToneExpr, tone.Freq, tone.Phase, fs, n)
	}
	for len(c.tabs) <= j {
		c.tabs = append(c.tabs, CosTable{})
	}
	return c.tabs[j].Cosines(ToneExpr, tone.Freq, tone.Phase, fs, n)
}

// TableSetBytes caps the cosines the process-wide TableSet holds, in
// bytes. A study at the service default (2048-sample captures) reads
// 51 stimulus and clock tables of 147 KiB; a 65536-sample capture
// needs 4.2 MB per table. At the cap the set evicts its least recently
// used tables to make room, so the cap bounds the set's memory for the
// life of the process.
const TableSetBytes = 16 << 20

// TableSet is a set of read-only carrier tables shared by every
// goroutine of the process: the carriers that do not depend on the
// device under test (stimulus tones, the SC clock), which every study
// at one capture shape reads alike. Each table is filled outside the
// lock and published once; the first table published under a key
// wins, and a published table is never written again, so CosTables
// may alias it. When a publish would take the set past TableSetBytes,
// the least recently used tables are dropped first; a CosTable that
// still borrows a dropped table keeps valid bits, since the set only
// forgets it. The zero value is an empty set ready to use.
type TableSet struct {
	mu    sync.Mutex
	tabs  map[tableKey]*setEntry
	bytes int
	tick  uint64 // advanced on every hit and publish; orders recency

	published, evicted int
}

type setEntry struct {
	tab  []float64
	used uint64 // the tick of the last hit or publish
}

// processTables is the set every CosTable.Cosines reads.
var processTables = new(TableSet)

// lookup returns the table published under k, or nil, and marks a hit
// as used.
func (s *TableSet) lookup(k tableKey) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.tabs[k]
	if e == nil {
		return nil
	}
	s.tick++
	e.used = s.tick
	return e.tab
}

// publish stores tab under k unless a table is already there, and
// returns the table the set holds under k. To make room it evicts the
// least recently used tables; tab must fit in TableSetBytes alone.
func (s *TableSet) publish(k tableKey, tab []float64) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tick++
	if e := s.tabs[k]; e != nil {
		e.used = s.tick
		return e.tab
	}
	for s.bytes+8*len(tab) > TableSetBytes {
		s.evictOldest()
	}
	if s.tabs == nil {
		s.tabs = make(map[tableKey]*setEntry)
	}
	s.tabs[k] = &setEntry{tab: tab, used: s.tick}
	s.bytes += 8 * len(tab)
	s.published++
	return tab
}

// evictOldest drops the least recently used table. The scan is linear,
// but the set holds about a hundred tables and evicts only on a
// publish that would pass the cap.
func (s *TableSet) evictOldest() {
	var (
		oldest tableKey
		used   uint64 = math.MaxUint64
	)
	for k, e := range s.tabs {
		if e.used < used {
			oldest, used = k, e.used
		}
	}
	s.bytes -= 8 * len(s.tabs[oldest].tab)
	delete(s.tabs, oldest)
	s.evicted++
}

// TableStats describes the process-wide carrier-table set.
type TableStats struct {
	// Tables and Bytes are what the set holds now.
	Tables, Bytes int
	// Published and Evicted count the tables the set has taken and
	// dropped since the process started.
	Published, Evicted int
}

// SharedTables returns the process-wide set's size and counts.
func SharedTables() TableStats {
	s := processTables
	s.mu.Lock()
	defer s.mu.Unlock()
	return TableStats{Tables: len(s.tabs), Bytes: s.bytes, Published: s.published, Evicted: s.evicted}
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
