// Package spectest implements the paper's spectral signature test for
// digital filters embedded behind an analog front end: the output
// spectrum of the (possibly faulty) gate-level filter is compared
// against the good-circuit reference spectrum within a tolerance
// derived from the analog uncertainty floor, excluding the bins near
// the applied sine frequencies where the uncertainty is not uniform.
// Faults whose spectral deviation stays below the floor escape —
// which is exactly the coverage loss the paper quantifies — and longer
// records raise periodic fault effects above the floor.
package spectest

import (
	"fmt"
	"math"
	"slices"

	"mstx/internal/dsp"
)

// Detector is a fault.Detector that compares output spectra. It is
// built once from the ideal-stimulus good-circuit record and reused
// for every fault. After construction and calibration (NewDetector,
// ExcludeFrequency, CalibrateFloor) the detector is immutable and safe
// for concurrent detection from many goroutines; workers that want the
// allocation-free hot path pair it with a per-goroutine Scratch.
type Detector struct {
	// SampleRate labels spectrum bins, Hz.
	SampleRate float64
	// ToneFreqs are the stimulus tone frequencies, Hz.
	ToneFreqs []float64
	// GuardBins is how many bins on each side of a stimulus tone (and
	// DC) are excluded from comparison — the paper's "frequencies
	// where the uncertainty level is uniform" rule.
	GuardBins int
	// FloorPower is the per-bin uncertainty power (same units as the
	// record squared) below which deviations are indistinguishable
	// from analog noise.
	FloorPower float64
	// MarginDB is how far above the floor a deviation must rise to be
	// called a fault effect.
	MarginDB float64

	ref *dsp.Spectrum
	// toneBins[i] is ToneFreqs[i]'s bin and refTone the reference's
	// power summed over them in that order: gain's fixed half.
	toneBins []int
	refTone  float64
	// compared lists the bins the comparison reads, ascending.
	compared []int
	n        int
}

// NewDetector builds a detector from the good-circuit record produced
// with the ideal stimulus. floorPower may be zero initially and set
// later with CalibrateFloor.
func NewDetector(goodIdeal []int64, fs float64, toneFreqs []float64, guardBins int, floorPower, marginDB float64) (*Detector, error) {
	if len(goodIdeal) == 0 {
		return nil, fmt.Errorf("spectest: empty reference record")
	}
	if fs <= 0 {
		return nil, fmt.Errorf("spectest: sample rate %g must be positive", fs)
	}
	if guardBins < 0 {
		return nil, fmt.Errorf("spectest: negative guard bins")
	}
	ref, err := spectrumOf(goodIdeal, fs)
	if err != nil {
		return nil, err
	}
	d := &Detector{
		SampleRate: fs,
		ToneFreqs:  append([]float64(nil), toneFreqs...),
		GuardBins:  guardBins,
		FloorPower: floorPower,
		MarginDB:   marginDB,
		ref:        ref,
		n:          len(goodIdeal),
	}
	// One allocation holds both bin lists.
	bins := make([]int, len(toneFreqs)+len(ref.Power))
	d.toneBins, d.compared = bins[:len(toneFreqs):len(toneFreqs)], bins[len(toneFreqs):]
	for i, f := range toneFreqs {
		d.toneBins[i] = ref.Bin(f)
		d.refTone += ref.Power[d.toneBins[i]]
	}
	for k := range d.compared {
		d.compared[k] = k
	}
	d.buildExclusions()
	return d, nil
}

// spectrumOf computes the comparison spectrum. A Blackman-Harris
// window keeps the floor robust against small stimulus/LO frequency
// errors of the device under test: leakage tails from a slightly
// off-bin tone would otherwise grow with record length and swamp the
// uncertainty floor. Its −92 dB sidelobes push tone-skirt residue
// below the analog noise everywhere past the guard band.
func spectrumOf(rec []int64, fs float64) (*dsp.Spectrum, error) {
	f := make([]float64, len(rec))
	for i, v := range rec {
		f[i] = float64(v)
	}
	return dsp.PowerSpectrum(f, fs, dsp.BlackmanHarris)
}

// exclude drops the bins within GuardBins of bin k from the compared
// list.
func (d *Detector) exclude(k int) {
	lo, hi := k-d.GuardBins, k+d.GuardBins
	d.compared = slices.DeleteFunc(d.compared, func(b int) bool { return lo <= b && b <= hi })
}

func (d *Detector) buildExclusions() {
	d.exclude(0)
	for _, f := range d.ToneFreqs {
		d.exclude(d.ref.Bin(f))
		// Harmonics of the stimulus also ride on elevated uncertainty
		// (analog distortion varies device to device); exclude 2nd and
		// 3rd.
		d.exclude(d.ref.Bin(2 * f))
		d.exclude(d.ref.Bin(3 * f))
	}
	// Intermodulation products of tone pairs carry the analog front
	// end's (device-dependent) distortion — their uncertainty is not
	// uniform either, so they are excluded from comparison.
	for i, f1 := range d.ToneFreqs {
		for j, f2 := range d.ToneFreqs {
			if i == j {
				continue
			}
			d.exclude(d.ref.Bin(math.Abs(2*f1 - f2)))
			d.exclude(d.ref.Bin(math.Abs(f2 - f1)))
			d.exclude(d.ref.Bin(f1 + f2))
			d.exclude(d.ref.Bin(2*f1 + f2))
		}
	}
}

// ExcludeFrequency removes the bins around frequency f (with the
// usual guard) from comparison. Callers exclude the known
// deterministic features of their analog front end — clock feed-
// through and LO leakage aliases — whose levels vary device to device.
// Call before CalibrateFloor.
func (d *Detector) ExcludeFrequency(f float64) {
	d.exclude(d.ref.Bin(f))
}

// CalibrateFloor sets FloorPower from a realistic fault-free capture:
// the worst per-bin deviation between that record's spectrum and the
// ideal reference over the compared bins, scaled by safety (>= 1).
// This is the paper's "level of total noise at the inputs of the
// digital filter is estimated through spectral analysis".
func (d *Detector) CalibrateFloor(noisyGood []int64, safety float64) error {
	if safety < 1 {
		return fmt.Errorf("spectest: safety factor %g must be >= 1", safety)
	}
	s, err := spectrumOf(noisyGood, d.SampleRate)
	if err != nil {
		return err
	}
	if len(s.Power) != len(d.ref.Power) {
		return fmt.Errorf("spectest: calibration record length %d != reference %d",
			len(noisyGood), d.n)
	}
	if len(d.compared) == 0 {
		return fmt.Errorf("spectest: every bin excluded")
	}
	// Use the largest observed deviation as the floor so a healthy
	// noisy device can never flag on its own noise, then apply the
	// safety factor for device-to-device spread.
	worst, _ := d.deviationOf(s.Power)
	d.FloorPower = worst * safety
	return nil
}

// threshold returns the per-bin detection threshold power.
func (d *Detector) threshold() float64 {
	return d.FloorPower * math.Pow(10, d.MarginDB/10)
}

// gain returns the factor that scales a record's spectrum p so its
// total stimulus-tone power matches the reference — the paper's
// elimination of analog gain variance through spectral analysis.
// Without it, a healthy device's slightly different path gain leaves
// a residual on the tone skirts that masquerades as an uncertainty
// floor. It is 1 (no scaling) when either tone power is not positive.
func (d *Detector) gain(p []float64) float64 {
	var got float64
	for _, k := range d.toneBins {
		got += p[k]
	}
	if got <= 0 || d.refTone <= 0 {
		return 1
	}
	return d.refTone / got
}

// Scratch holds the per-worker reusable buffers for allocation-free
// detection: the float conversion buffer and the windowed-FFT scratch
// (window table, complex work buffer, power buffer) keyed off the
// shared dsp plan cache. A Scratch is not safe for concurrent use;
// create one per goroutine with NewScratch.
type Scratch struct {
	f  []float64
	ss *dsp.SpectrumScratch
}

// NewScratch builds a scratch sized for this detector's record length.
func (d *Detector) NewScratch() (*Scratch, error) {
	ss, err := dsp.NewSpectrumScratch(d.n, dsp.BlackmanHarris)
	if err != nil {
		return nil, err
	}
	return &Scratch{f: make([]float64, d.n), ss: ss}, nil
}

// spectrumFor computes the comparison spectrum of rec, through the
// scratch when one is supplied (allocation-free, bit-identical) or the
// allocating spectrumOf path when sc is nil.
func (d *Detector) spectrumFor(rec []int64, sc *Scratch) (*dsp.Spectrum, error) {
	if sc == nil {
		return spectrumOf(rec, d.SampleRate)
	}
	if len(sc.f) != len(rec) {
		return nil, fmt.Errorf("spectest: scratch length %d != record %d", len(sc.f), len(rec))
	}
	for i, v := range rec {
		sc.f[i] = float64(v)
	}
	return sc.ss.PowerSpectrum(sc.f, d.SampleRate)
}

// deviationOf returns the largest per-bin deviation of the normalized
// power spectrum p from the reference over the compared bins, and its
// bin.
func (d *Detector) deviationOf(p []float64) (float64, int) {
	g := d.gain(p)
	worst, worstBin := 0.0, -1
	for _, k := range d.compared {
		dev := math.Abs(p[k]*g - d.ref.Power[k])
		if dev > worst {
			worst, worstBin = dev, k
		}
	}
	return worst, worstBin
}

// Deviation returns the largest per-bin spectral deviation of the
// record from the reference over the compared bins, and the bin it
// occurred at.
func (d *Detector) Deviation(rec []int64) (float64, int, error) {
	return d.DeviationScratch(rec, nil)
}

// DeviationScratch is Deviation through a worker's reusable scratch
// buffers; sc may be nil, in which case temporaries are allocated.
func (d *Detector) DeviationScratch(rec []int64, sc *Scratch) (float64, int, error) {
	if len(rec) != d.n {
		return 0, 0, fmt.Errorf("spectest: record length %d != reference %d", len(rec), d.n)
	}
	s, err := d.spectrumFor(rec, sc)
	if err != nil {
		return 0, 0, err
	}
	worst, worstBin := d.deviationOf(s.Power)
	return worst, worstBin, nil
}

// DetectRecord reports whether the record's spectrum deviates from the
// ideal-good reference by more than the floor-derived threshold in at
// least one compared bin. Unlike the legacy bool-only path, detector
// failures (record-length mismatch, spectrum errors) surface as errors
// instead of masquerading as undetected faults. sc may be nil.
func (d *Detector) DetectRecord(rec []int64, sc *Scratch) (bool, error) {
	dev, _, err := d.DeviationScratch(rec, sc)
	if err != nil {
		return false, err
	}
	return dev > d.threshold(), nil
}

// Detect implements fault.Detector: the faulty record's spectrum must
// deviate from the ideal-good reference by more than the floor-derived
// threshold in at least one compared bin. The good record passed by
// the campaign is ignored — the reference is the ideal-input good
// circuit, as in the paper's methodology — so Detect(good, good) is
// DetectRecord(good, nil), the campaign's zero-diff screen verdict.
//
// This entry point allocates its spectrum temporaries per call; engines
// that detect in a loop use NewWorkerDetect (the campaign engine and
// fault.SerialSimulate pick it up through fault.BindWorker) for the
// allocation-free path.
func (d *Detector) Detect(good, faulty []int64) (bool, error) {
	return d.DetectRecord(faulty, nil)
}

// NewWorkerDetect returns a Detect-shaped function bound to fresh
// per-worker state, satisfying fault.WorkerDetector: verdicts are
// identical to Detect's, and the record → verdict path reuses one
// buffer set and allocates nothing in steady state. The returned
// function is not safe for concurrent use — it owns its scratch; call
// NewWorkerDetect once per goroutine.
//
// Most records do not need a full spectrum, so the worker first tries
// two certified screens (DESIGN §6), each of which decides a
// record only when a written-out error bound puts the verdict beyond
// doubt:
//
//   - the bound screen (clearMiss) bounds every compared bin of the
//     record's reference spectrum from the good record's reference
//     amplitudes and the L1 norm of the windowed difference; when no
//     bin can reach the threshold the record is undetected, with no
//     transform at all;
//   - the aliased probe (clearHit) reads every probeStride-th bin from
//     the record folded mod NFFT/probeStride and the tone bins by
//     direct DFT; when a probed bin exceeds the threshold by more than
//     the probe's error, the record is detected.
//
// A record neither screen decides takes the full path: the deviation
// on the fast real-input spectrum, and a record whose fast deviation
// lies within δ of the threshold is re-decided on the reference
// transform, with DetectRecord's arithmetic. δ bounds
// |dev_fast − dev_ref| (see fastDeviation), so outside it both
// deviations fall on the same side of the threshold. Every route's
// verdict is therefore Detect's by construction. Every route reads the
// one windowed record of a dsp.RecordScratch. The worker's scratch is
// built here and never in NewDetector, so a detector that only serves
// Detect pays nothing for it.
func (d *Detector) NewWorkerDetect() (func(good, faulty []int64) (bool, error), error) {
	w, err := d.newWorker(workerMargins)
	if err != nil {
		return nil, err
	}
	return w.detect, nil
}

// Routes counts how a worker detector decided its records.
type Routes struct {
	// Bound counts records the bound screen certified undetected.
	Bound int
	// Probe counts records the aliased probe certified detected.
	Probe int
	// Full counts records decided on a full spectrum; Fallback counts
	// those among them re-decided on the reference transform.
	Full, Fallback int
}

// NewCountingWorkerDetect is NewWorkerDetect with a reader of the
// worker's route counts, for tests and benchmarks that report how
// records were decided.
func (d *Detector) NewCountingWorkerDetect() (detect func(good, faulty []int64) (bool, error), routes func() Routes, err error) {
	w, err := d.newWorker(workerMargins)
	if err != nil {
		return nil, nil, err
	}
	return w.detect, func() Routes { return w.routes }, nil
}

// margins multiply each route's written-out error bound: the bound
// screen's rounding terms, the probe's bound on |dev_probe − dev_ref|
// and the full path's δ. The bounds are already worst-case (the dsp
// tests see per-bin errors under 1% of them); the factor covers the
// second-order terms the derivations round away. Tests set one to 0
// to show that route's verdict flips without it.
type margins struct{ bound, probe, delta float64 }

var workerMargins = margins{bound: 4, probe: 4, delta: 4}

// probeStride is the aliased probe's bin stride m: it reads the
// compared bins k ≡ 0 (mod m) from one NFFT/(2m)-point transform. On
// the 1024-pattern E8 universe m = 8 (50 compared bins) shows a clear
// hit on 1,819 of 1,939 detected records; m = 4 adds 59 for twice the
// transform, m = 16 loses 38 and m = 32 loses 72.
const probeStride = 8

// worker is one goroutine's detection state behind NewWorkerDetect.
type worker struct {
	d *Detector
	// rs windows each record once and serves every route's view of
	// it: the bound screen's L1 and energy, the probe, the fast
	// spectrum and the reference spectrum.
	rs *dsp.RecordScratch
	// screens is false when the record is too short to fold: every
	// record then takes the full path.
	screens bool
	// probed lists the compared bins that are multiples of
	// probeStride, taken when the compared list had nCompared bins.
	// ExcludeFrequency only ever shortens that list, so a length change
	// is what tells a worker to take it again.
	probed    []int
	nCompared int
	// The bound screen's base, rebuilt whenever a call's good record
	// differs from good by content (a caller may refill one slice) or
	// the compared list changed: the codes, their windowed samples xb
	// and energy eb, and √P of their reference spectrum at each tone
	// bin (ampTone) and at compared[i] (amp[i]).
	good    []int64
	xb      []float64
	eb      float64
	ampTone []float64
	amp     []float64
	based   bool
	m       margins
	routes  Routes
	// rebases counts base rebuilds.
	rebases int
}

func (d *Detector) newWorker(m margins) (*worker, error) {
	w := &worker{d: d, m: m, screens: d.ref.NFFT >= 2*probeStride}
	stride, bins := 0, []int(nil)
	if w.screens {
		stride, bins = probeStride, d.toneBins
	}
	var err error
	if w.rs, err = dsp.NewRecordScratch(d.n, dsp.BlackmanHarris, stride, bins); err != nil {
		return nil, err
	}
	if !w.screens {
		return w, nil
	}
	w.probed = make([]int, 0, len(d.compared)/probeStride+1)
	w.takeBins()
	w.good = make([]int64, d.n)
	t := len(d.toneBins)
	floats := make([]float64, d.n+t+len(d.compared))
	w.xb, w.ampTone, w.amp = floats[:d.n:d.n], floats[d.n:d.n+t:d.n+t], floats[d.n+t:]
	return w, nil
}

// takeBins takes the detector's compared list: the probed bins, and a
// base to rebuild.
func (w *worker) takeBins() {
	w.probed = w.probed[:0]
	for _, k := range w.d.compared {
		if k%probeStride == 0 {
			w.probed = append(w.probed, k)
		}
	}
	w.nCompared = len(w.d.compared)
	w.based = false
}

func (w *worker) detect(good, faulty []int64) (bool, error) {
	d := w.d
	if len(faulty) != d.n {
		return false, fmt.Errorf("spectest: record length %d != reference %d", len(faulty), d.n)
	}
	thr := d.threshold()
	var base []float64
	if w.screens {
		if len(d.compared) != w.nCompared {
			w.takeBins()
		}
		if len(good) == d.n {
			if !w.based || !sameCodes(good, w.good) {
				if err := w.rebase(good); err != nil {
					return false, err
				}
			}
			base = w.xb
		}
	}
	l1, err := w.rs.Load(faulty, base)
	if err != nil {
		return false, err
	}
	if w.screens {
		if base != nil && w.clearMiss(l1, thr) {
			w.routes.Bound++
			return false, nil
		}
		strided, direct, err := w.rs.Probe()
		if err != nil {
			return false, err
		}
		if w.clearHit(strided, direct, thr) {
			w.routes.Probe++
			return true, nil
		}
	}
	w.routes.Full++
	p, err := w.rs.Spectrum()
	if err != nil {
		return false, err
	}
	if dev, delta, ok := d.fastDeviation(p, w.rs.SpectrumBound(), w.m.delta); ok && math.Abs(dev-thr) > delta {
		return dev > thr, nil
	}
	w.routes.Fallback++
	ref, err := w.rs.Reference()
	if err != nil {
		return false, err
	}
	dev, _ := d.deviationOf(ref)
	return dev > thr, nil
}

// rebase makes good the bound screen's base. It leaves good loaded in
// the scratch; the caller loads its record next.
func (w *worker) rebase(good []int64) error {
	d := w.d
	w.based = false
	if _, err := w.rs.Load(good, nil); err != nil {
		return err
	}
	p, err := w.rs.Reference()
	if err != nil {
		return err
	}
	for i, k := range d.toneBins {
		w.ampTone[i] = math.Sqrt(p[k])
	}
	for i, k := range d.compared {
		w.amp[i] = math.Sqrt(p[k])
	}
	copy(w.xb, w.rs.Windowed())
	w.eb = w.rs.Energy()
	copy(w.good, good)
	w.based = true
	w.rebases++
	return nil
}

// unitRoundoff is u, the float64 unit roundoff.
const unitRoundoff = 0x1p-53

// gammaOf is Higham's γ_k = ku/(1-ku).
func gammaOf(k float64) float64 { return k * unitRoundoff / (1 - k*unitRoundoff) }

// clearMiss reports whether the loaded record (w.rs), at windowed
// L1 distance l1 from the base, is certainly undetected: whether, in
// every compared bin, every power its reference spectrum can take
// given the base lies within thr of the reference. The bound, with
// x_f and x_b the windowed record and base
// as the reference transform reads them (so X_f − X_b is the exact
// DFT of x_f − x_b), S = √N·‖x‖₂, c_N = dsp.ReferenceBinError and the
// margin M multiplying every rounding term:
//
//   - In exact arithmetic |X_f[k] − X_b[k]| ≤ L1 = Σ_t |x_f,t − x_b,t|
//     for every bin. The reference transforms of both records are
//     within c_N·S_f and c_N·S_b of exact, so the computed
//     |X̂_f[k]| is within E = L1 + c_N·(S_f + S_b) of |X̂_b[k]|.
//   - In amplitude units (√P, P = 2·scale²·|X̂|², halved at DC and
//     Nyquist, where √2 over-covers) a_k = √P_b[k] and e = √2·scale·E,
//     so √P_f[k] ∈ [(a_k − e)₊, a_k + e]. Each end is widened by
//     ε = 8u·M for a_k's and P_f's rounding.
//   - Gain: the tone powers bound G = Σ_T P_f[tone] in [G_lo, G_hi]
//     (widened by γ_{T+1}); with R = refTone > 0 and G_lo > 0,
//     g = R/G ∈ [R/G_hi, R/G_lo] (widened by 4u). With R ≤ 0, g = 1;
//     with G_lo ≤ 0 the reference may skip normalizing, and the screen
//     declines.
//   - Each compared bin's deviation |fl(g·P) − R_k| is then at most
//     max(g_hi·P_hi − R_k, R_k − g_lo·P_lo), the products widened by
//     2u; the record is undetected when that stays under
//     thr·(1 − 3u) in every bin, covering the subtraction's rounding on
//     both sides.
//
// L1's own summation is covered by γ_{N+2}, and S's by the same
// factor under the root.
func (w *worker) clearMiss(l1, thr float64) bool {
	d, mg := w.d, w.m.bound
	const u = unitRoundoff
	nfft := float64(d.ref.NFFT)
	gN := gammaOf(nfft + 2)
	sf := math.Sqrt(nfft * w.rs.Energy() * (1 + gN))
	sb := math.Sqrt(nfft * w.eb * (1 + gN))
	bigE := l1*(1+mg*gN) + mg*dsp.ReferenceBinError(d.ref.NFFT)*(sf+sb)
	scale := 1 / (d.ref.ProcessingGain * float64(d.n))
	e := math.Sqrt2 * scale * bigE * (1 + mg*4*u)
	up, down := 1+mg*8*u, 1-mg*8*u

	gLo, gHi := 1.0, 1.0
	if r := d.refTone; r > 0 {
		var lo, hi float64
		for _, a := range w.ampTone {
			h, l := (a+e)*up, max(a-e, 0)*down
			hi += h * h
			lo += l * l
		}
		gT := mg * gammaOf(float64(len(d.toneBins)+1))
		lo *= 1 - gT
		hi *= 1 + gT
		if lo <= 0 {
			return false
		}
		gLo, gHi = r/hi*(1-mg*4*u), r/lo*(1+mg*4*u)
	}
	gLo *= 1 - mg*2*u
	gHi *= 1 + mg*2*u
	lim := thr * (1 - mg*3*u)
	ref := d.ref.Power
	amp := w.amp[:len(d.compared)]
	for i, k := range d.compared {
		a, r := amp[i], ref[k]
		h := (a + e) * up
		if gHi*(h*h)-r > lim {
			return false
		}
		// The low side can pass lim only where the reference does.
		if r > lim {
			if l := (a - e) * down; l <= 0 || r-gLo*(l*l) > lim {
				return false
			}
		}
	}
	return true
}

// sameCodes reports whether a and b hold the same codes; len(a) ≤
// len(b).
func sameCodes(a, b []int64) bool {
	b = b[:len(a)]
	var diff int64
	i := 0
	for ; i+3 < len(a); i += 4 {
		diff |= (a[i] ^ b[i]) | (a[i+1] ^ b[i+1]) | (a[i+2] ^ b[i+2]) | (a[i+3] ^ b[i+3])
	}
	for ; i < len(a); i++ {
		diff |= a[i] ^ b[i]
	}
	return diff == 0
}

// clearHit reports whether the probed bins of the loaded record
// certainly show a detection: whether some probed compared bin's
// deviation exceeds thr by more than margin·(the bound on
// |dev_probe − dev_ref| at that bin). The bound is fastDeviation's,
// with the probe's per-bin error (dsp.RecordScratch.ProbeBound, which
// covers the direct tone bins too) as ebin and q the largest
// normalized probed power. The reference's deviation at that bin then
// exceeds thr, and Detect's maximum over all compared bins with it.
func (w *worker) clearHit(strided, direct []float64, thr float64) bool {
	d := w.d
	ebin := w.rs.ProbeBound()
	var got float64
	for _, p := range direct {
		got += p
	}
	g, rho, ok := d.gainBound(got, ebin)
	if !ok {
		return false
	}
	var dev, q float64
	for _, k := range w.probed {
		v := strided[k/probeStride] * g
		q = max(q, v)
		dev = max(dev, math.Abs(v-d.ref.Power[k]))
	}
	return dev-w.m.probe*deviationError(dev, q, g, rho, ebin) > thr
}

// fastDeviation is deviationOf on a fast power spectrum p whose every
// bin is within ebin of the reference spectrum of the same record
// (dsp.RecordScratch.SpectrumBound). It returns the fast deviation
// and δ = margin·(a bound on |dev_fast − dev_ref|), or ok = false when
// no bound holds because the record's tone power is within twice its
// error of zero (the reference might then skip the normalization the
// fast path applies, or the reverse).
//
// The bound follows the reference's arithmetic step by step (u is the
// unit roundoff, T the tone count, subscripts f/r fast/reference):
//
//   - Tone power G = Σ_T P[tone bin]: |G_f − G_r| ≤ ΔG = T·ebin +
//     2γ_T·(G_f + T·ebin), each path's sum rounding by γ_T.
//   - Gain g = R/G (R the reference's tone power, the same in both): for
//     G_f > 2ΔG, |g_f − g_r| ≤ ρ·g_f, ρ = ΔG/(G_f−ΔG)·(1+2u) + 3u. With
//     R ≤ 0 neither path normalizes: g = 1, ρ = 0.
//   - A compared bin Q = fl(g·P): with q the largest fast Q over the
//     compared bins (so g_f·P_f ≤ q' = q(1+2u) and P_r ≤ P_f + ebin),
//     |Q_f − Q_r| ≤ D = g_f·ebin + ρ·(q' + g_f·ebin) + u·(q' +
//     (1+ρ)·(q' + g_f·ebin)).
//   - dev = max |fl(Q − ref)|, each subtraction rounding by u:
//     |dev_f − dev_r| ≤ D + u·(2·dev_f + D).
//
// ebin scales with the record's windowed energy (Parseval), so δ does.
func (d *Detector) fastDeviation(p []float64, ebin, margin float64) (dev, delta float64, ok bool) {
	var got float64
	for _, k := range d.toneBins {
		got += p[k]
	}
	g, rho, ok := d.gainBound(got, ebin)
	if !ok {
		return 0, 0, false
	}
	var q float64
	for _, k := range d.compared {
		v := p[k] * g
		q = max(q, v)
		dev = max(dev, math.Abs(v-d.ref.Power[k]))
	}
	return dev, margin * deviationError(dev, q, g, rho, ebin), true
}

// gainBound is fastDeviation's gain step: g for a spectrum whose tone
// bins sum to got, each within ebin of the reference spectrum's, and ρ
// with |g − g_ref| ≤ ρ·g; ok = false when got is within 2ΔG of zero.
func (d *Detector) gainBound(got, ebin float64) (g, rho float64, ok bool) {
	const u = unitRoundoff
	if d.refTone <= 0 {
		return 1, 0, true
	}
	t := float64(len(d.toneBins))
	dG := t*ebin + 2*gammaOf(t)*(got+t*ebin)
	if got <= 2*dG {
		return 0, 0, false
	}
	return d.refTone / got, dG/(got-dG)*(1+2*u) + 3*u, true
}

// deviationError is fastDeviation's last two steps: the bound on
// |dev − dev_ref| over bins whose largest normalized power is q.
func deviationError(dev, q, g, rho, ebin float64) float64 {
	const u = unitRoundoff
	q *= 1 + 2*u
	ge := g * ebin
	bound := ge + rho*(q+ge) + u*(q+(1+rho)*(q+ge))
	return bound + u*(2*dev+bound)
}

// ComparedBins returns how many spectrum bins participate in the
// comparison.
func (d *Detector) ComparedBins() int {
	return len(d.compared)
}

// FloorDBFS returns the calibrated floor power in dB relative to the
// reference's total stimulus power — a readable summary of how much
// analog uncertainty the test must tolerate.
func (d *Detector) FloorDBFS() float64 {
	if d.refTone <= 0 {
		return math.Inf(1)
	}
	return dsp.DB(d.FloorPower / d.refTone)
}
