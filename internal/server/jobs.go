package server

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"mstx/internal/campaign"
	"mstx/internal/core"
	"mstx/internal/experiments"
	"mstx/internal/fault"
	"mstx/internal/params"
	"mstx/internal/resilient"
	"mstx/internal/soc"
	"mstx/internal/translate"
)

// Spec is the wire-format description of a job. Kind selects the
// engine; the remaining fields parameterize it (zero values take the
// kind's defaults, which normalize makes explicit so two ways of
// writing the same job share one cache identity).
type Spec struct {
	// Kind is "campaign" (spectral fault campaign, E8's long leg),
	// "mc" (the E6 Table 2 Monte-Carlo study), "translate" (the
	// referral-error MC of one propagation-translated parameter) or
	// "soc" (the E9 multi-core SOC TAM schedule sweep).
	Kind string `json:"kind"`
	// Seed drives the job's deterministic substreams. Defaults: 1 for
	// campaign (the CLI's noisy-capture seed), 0 for mc/translate.
	Seed int64 `json:"seed,omitempty"`

	// Patterns is the campaign record length (power of two ≥ 64).
	// Default 1024.
	Patterns int `json:"patterns,omitempty"`

	// Devices is the mc device population. Default 15 (the paper's);
	// the -quick CLI uses 6.
	Devices int `json:"devices,omitempty"`
	// MCSamples is the mc per-row loss cross-check budget. Default
	// 200000.
	MCSamples int `json:"mc_samples,omitempty"`
	// CaptureN is the mc capture length (power of two; engine default
	// 2048). The E6 golden configuration uses 1024.
	CaptureN int `json:"capture_n,omitempty"`

	// Param is the translate parameter: "mixer-iip3", "mixer-p1db" or
	// "lpf-cutoff" (aliases "IIP3", "P1dB", "fc"; matched
	// case-insensitively and canonicalized before hashing).
	Param string `json:"param,omitempty"`
	// Method is the translate referral method: "nominal-gains" or
	// "adaptive". Default "adaptive".
	Method string `json:"method,omitempty"`
	// Samples is the translate draw budget. Default 100000.
	Samples int `json:"samples,omitempty"`
	// BatchSize is the translate per-lane sample count (0 = engine
	// default). Part of the reproducibility identity.
	BatchSize int `json:"batch_size,omitempty"`

	// TAMWidths are the soc TAM bus widths to sweep, each ≥ 1.
	// Default: the E9 sweep 8, 16, 24, 32, 48.
	TAMWidths []int `json:"tam_widths,omitempty"`
	// Cores restricts the soc to these core IDs, no duplicates
	// (default: every core of the E9 SOC).
	Cores []string `json:"cores,omitempty"`
	// Iterations is the soc per-width-lane local-search budget.
	// Default soc.DefaultIterations.
	Iterations int `json:"iterations,omitempty"`

	// DeadlineMS is the job's wall budget in milliseconds, spanning
	// every attempt and retry backoff from first dispatch. 0 = server
	// default; the server cap applies either way. Expiry lands the job
	// in the deadline_exceeded terminal state, salvaging whatever
	// partial result the engine produced.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// TimeoutSec is the legacy spelling of the same budget; normalize
	// folds it into DeadlineMS when deadline_ms is absent.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// jobKinds enumerates the registered engine kinds; each gets its own
// circuit breaker and /readyz entry.
var jobKinds = []string{"campaign", "mc", "translate", "soc"}

// Result is a finished job's payload. Text is the human-readable
// table — byte-identical to what the corresponding CLI prints — and
// exactly one of the typed fields is set.
type Result struct {
	Kind string `json:"kind"`
	// Identity is the content address (FNV-1a, hex) the result is
	// cached under.
	Identity string `json:"identity"`
	// Text is the formatted result, diffable against the CLI output.
	Text string `json:"text"`
	// Partial marks a degraded result (quarantined campaign batches).
	Partial bool `json:"partial,omitempty"`

	Campaign  *CampaignResult  `json:"campaign,omitempty"`
	MC        *MCResult        `json:"mc,omitempty"`
	Translate *TranslateResult `json:"translate,omitempty"`
	SOC       *SOCResult       `json:"soc,omitempty"`
}

// CampaignResult summarizes a spectral fault campaign.
type CampaignResult struct {
	Patterns    int     `json:"patterns"`
	Faults      int     `json:"faults"`
	Detected    int     `json:"detected"`
	Coverage    float64 `json:"coverage_pct"`
	Screened    int     `json:"screened"`
	Memoized    int     `json:"memoized"`
	Spectra     int     `json:"spectra"`
	Quarantined int     `json:"quarantined,omitempty"`
}

// MCResult summarizes the E6 Table 2 study.
type MCResult struct {
	Devices int         `json:"devices"`
	Rows    []MCLossRow `json:"rows"`
}

// MCLossRow is one parameter's nominal-threshold losses with the
// engine cross-check.
type MCLossRow struct {
	Parameter string  `json:"parameter"`
	ErrSigma  float64 `json:"err_sigma"`
	FCL       float64 `json:"fcl"`
	YL        float64 `json:"yl"`
	MCFCL     float64 `json:"mc_fcl"`
	MCYL      float64 `json:"mc_yl"`
	MCSamples int     `json:"mc_samples"`
}

// SOCResult summarizes the E9 TAM schedule sweep: one optimized
// schedule per swept bus width.
type SOCResult struct {
	Cores int           `json:"cores"`
	Tests int           `json:"tests"`
	Rows  []SOCSweepRow `json:"rows"`
}

// SOCSweepRow is one TAM width's schedule summary.
type SOCSweepRow struct {
	Width          int     `json:"width"`
	MakespanCycles int64   `json:"makespan_cycles"`
	BoundCycles    int64   `json:"bound_cycles"`
	PackWidth      int     `json:"pack_width"`
	EffectiveWidth int     `json:"effective_width"`
	Utilization    float64 `json:"utilization"`
}

// TranslateResult summarizes a referral-error estimation.
type TranslateResult struct {
	Param         string  `json:"param"`
	Method        string  `json:"method"`
	Sigma         float64 `json:"sigma"`
	Mean          float64 `json:"mean"`
	P95           float64 `json:"p95"`
	AnalyticSigma float64 `json:"analytic_sigma"`
	Samples       int     `json:"samples"`
}

// taskEnv is what the scheduler hands a running task: the engine
// fan-out and the job's private checkpoint directory (nil when the
// server is not persistent).
type taskEnv struct {
	workers int
	ckpt    *resilient.Checkpointer
}

// task is one validated, runnable job. prepare computes the content
// identity (for the campaign kind it builds the stimulus, which run
// then reuses); run computes the result under ctx, with engine
// checkpoints going into env.ckpt so a killed server resumes the job
// instead of restarting it.
type task interface {
	prepare(ctx context.Context) (uint64, error)
	run(ctx context.Context, env taskEnv) (*Result, error)
}

// fnv1a folds s into h with the FNV-1a byte step — the same identity
// hash the engines use for stimulus/checkpoint validation
// (campaign.HashRecord), applied to the canonical spec string.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

const fnvOffset = uint64(14695981039346656037)

// The spec size caps. A job spec is untrusted input, and each field
// below sets the size of the work or memory a job asks for; a spec
// over its cap is a bad request naming the field and the cap. Each cap
// sits well above the largest value the tests, examples, goldens and
// benchmark workloads send (cold-mix's translate jobs send 1 000 000
// samples).
const (
	maxPatterns   = 1 << 16
	maxCaptureN   = 1 << 16
	maxDevices    = 1024
	maxMCSamples  = 10_000_000
	maxSamples    = 10_000_000
	maxTAMWidths  = 64 // entries in tam_widths
	maxTAMWidth   = 1024
	maxCores      = 64 // entries in cores
	maxIterations = 1 << 14
	// maxDeadlineMS is the longest budget a time.Duration holds, about
	// 292 years; timeout_sec folds into deadline_ms under the same cap.
	maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)
)

// checkCap rejects v above limit, naming the field and the cap.
func checkCap(field string, v, limit int) error {
	if v > limit {
		return fmt.Errorf("%s %d exceeds the cap %d", field, v, limit)
	}
	return nil
}

// normalize validates the spec and fills in the kind's defaults, so
// the canonical identity string never depends on which zero fields the
// client omitted.
func (sp *Spec) normalize() error {
	switch sp.Kind {
	case "campaign":
		if sp.Patterns == 0 {
			sp.Patterns = 1024
		}
		if err := checkCap("campaign patterns", sp.Patterns, maxPatterns); err != nil {
			return err
		}
		if sp.Patterns < 64 || sp.Patterns&(sp.Patterns-1) != 0 {
			return fmt.Errorf("campaign patterns %d must be a power of two ≥ 64", sp.Patterns)
		}
		if sp.Seed == 0 {
			sp.Seed = 1
		}
	case "mc":
		if sp.Devices == 0 {
			sp.Devices = 15
		}
		if sp.Devices < 2 {
			return fmt.Errorf("mc devices %d must be ≥ 2", sp.Devices)
		}
		if sp.MCSamples == 0 {
			sp.MCSamples = 200000
		}
		if sp.MCSamples < 0 {
			return fmt.Errorf("mc mc_samples %d must be ≥ 0", sp.MCSamples)
		}
		if sp.CaptureN == 0 {
			sp.CaptureN = 2048
		}
		if err := checkCap("mc devices", sp.Devices, maxDevices); err != nil {
			return err
		}
		if err := checkCap("mc mc_samples", sp.MCSamples, maxMCSamples); err != nil {
			return err
		}
		if err := checkCap("mc capture_n", sp.CaptureN, maxCaptureN); err != nil {
			return err
		}
		if sp.CaptureN < 64 || sp.CaptureN&(sp.CaptureN-1) != 0 {
			return fmt.Errorf("mc capture_n %d must be a power of two ≥ 64", sp.CaptureN)
		}
	case "translate":
		switch strings.ToLower(sp.Param) {
		case "iip3", string(params.MixerIIP3):
			sp.Param = string(params.MixerIIP3)
		case "p1db", string(params.MixerP1dB):
			sp.Param = string(params.MixerP1dB)
		case "fc", string(params.LPFCutoff):
			sp.Param = string(params.LPFCutoff)
		default:
			return fmt.Errorf("translate param %q: want mixer-iip3, mixer-p1db or lpf-cutoff", sp.Param)
		}
		switch sp.Method {
		case "", "adaptive":
			sp.Method = "adaptive"
		case "nominal-gains", "nominal":
			sp.Method = "nominal-gains"
		default:
			return fmt.Errorf("translate method %q: want nominal-gains or adaptive", sp.Method)
		}
		if sp.Samples == 0 {
			sp.Samples = 100000
		}
		if sp.Samples < 0 {
			return fmt.Errorf("translate samples %d must be ≥ 0", sp.Samples)
		}
		if err := checkCap("translate samples", sp.Samples, maxSamples); err != nil {
			return err
		}
		if sp.BatchSize < 0 {
			return fmt.Errorf("translate batch_size %d must be ≥ 0", sp.BatchSize)
		}
	case "soc":
		if len(sp.TAMWidths) == 0 {
			sp.TAMWidths = append([]int(nil), experiments.DefaultTAMWidths...)
		}
		if err := checkCap("soc tam_widths length", len(sp.TAMWidths), maxTAMWidths); err != nil {
			return err
		}
		for _, w := range sp.TAMWidths {
			if w < 1 {
				return fmt.Errorf("soc tam_widths entry %d must be ≥ 1", w)
			}
			if err := checkCap("soc tam_widths entry", w, maxTAMWidth); err != nil {
				return err
			}
		}
		if err := checkCap("soc cores length", len(sp.Cores), maxCores); err != nil {
			return err
		}
		seen := make(map[string]bool, len(sp.Cores))
		for _, id := range sp.Cores {
			if id == "" {
				return fmt.Errorf("soc cores entry must not be empty")
			}
			if seen[id] {
				return fmt.Errorf("soc duplicate core ID %q", id)
			}
			seen[id] = true
		}
		if sp.Iterations < 0 {
			return fmt.Errorf("soc iterations %d must be ≥ 0", sp.Iterations)
		}
		if sp.Iterations == 0 {
			sp.Iterations = soc.DefaultIterations
		}
		if err := checkCap("soc iterations", sp.Iterations, maxIterations); err != nil {
			return err
		}
		if sp.Seed == 0 {
			sp.Seed = experiments.DefaultSOCSeed
		}
	case "":
		return fmt.Errorf("missing job kind (want campaign, mc, translate or soc)")
	default:
		return fmt.Errorf("unknown job kind %q (want campaign, mc, translate or soc)", sp.Kind)
	}
	if sp.TimeoutSec < 0 {
		return fmt.Errorf("timeout_sec %g must be ≥ 0", sp.TimeoutSec)
	}
	if sp.TimeoutSec > float64(maxDeadlineMS/1000) {
		return fmt.Errorf("timeout_sec %g exceeds the cap %d", sp.TimeoutSec, maxDeadlineMS/1000)
	}
	if sp.DeadlineMS < 0 {
		return fmt.Errorf("deadline_ms %d must be ≥ 0", sp.DeadlineMS)
	}
	if sp.DeadlineMS > maxDeadlineMS {
		return fmt.Errorf("deadline_ms %d exceeds the cap %d", sp.DeadlineMS, maxDeadlineMS)
	}
	if sp.DeadlineMS == 0 && sp.TimeoutSec > 0 {
		sp.DeadlineMS = int64(sp.TimeoutSec * 1000)
	}
	return nil
}

// newTask validates sp (normalizing defaults in place) and builds its
// adapter.
func newTask(sp *Spec) (task, error) {
	if err := sp.normalize(); err != nil {
		return nil, err
	}
	switch sp.Kind {
	case "campaign":
		return &campaignTask{spec: *sp}, nil
	case "mc":
		return &mcTask{spec: *sp}, nil
	case "soc":
		return &socTask{spec: *sp}, nil
	default:
		return &translateTask{spec: *sp}, nil
	}
}

// campaignTask runs the spectral fault campaign of the default comm
// path's digital filter (E8's through-the-analog-path leg) on the
// pooled campaign engine.
type campaignTask struct {
	spec Spec
	dt   *core.DigitalTest
}

func (t *campaignTask) prepare(_ context.Context) (uint64, error) {
	spec, err := experiments.BuildDefaultSpec()
	if err != nil {
		return 0, err
	}
	synth, err := core.New(spec)
	if err != nil {
		return 0, err
	}
	o := core.DefaultDigitalTestOptions()
	o.Patterns = t.spec.Patterns
	o.Seed = t.spec.Seed
	if t.dt, err = synth.BuildDigitalTest(o); err != nil {
		return 0, err
	}
	// The content address is the actual stimulus the campaign runs on
	// (the engines' own FNV-1a record identity), mixed with the spec
	// fields that shape the run: two submissions compute the same
	// campaign iff the gate-level records they would transform match.
	h := fnv1a(fnvOffset, fmt.Sprintf("campaign|%d|%d|", t.spec.Patterns, t.spec.Seed))
	h ^= campaign.HashRecord(t.dt.RealisticCodes)
	h *= 1099511628211
	return h, nil
}

func (t *campaignTask) run(ctx context.Context, env taskEnv) (*Result, error) {
	rep, stats, err := t.dt.RunSpectralOpts(ctx, campaign.Options{
		DetectWorkers: env.workers,
		Quarantine:    true,
		Checkpoint:    env.ckpt,
	})
	if err != nil {
		if resilient.Interrupted(err) && rep != nil && len(rep.Results) > 0 {
			// The engine hands back what it finished before the
			// interruption; surface it as a partial result alongside
			// the error so an expired deadline still salvages the
			// completed faults.
			return t.report(rep, stats, true), err
		}
		return nil, err
	}
	return t.report(rep, stats, stats.Quarantined > 0), nil
}

func (t *campaignTask) report(rep *fault.Report, stats *campaign.Stats, partial bool) *Result {
	res := &Result{
		Kind:    "campaign",
		Partial: partial,
		Campaign: &CampaignResult{
			Patterns:    t.spec.Patterns,
			Faults:      len(rep.Results),
			Detected:    rep.Detected(),
			Coverage:    rep.Coverage(),
			Screened:    stats.Screened,
			Memoized:    stats.Memoized,
			Spectra:     stats.Spectra,
			Quarantined: stats.Quarantined,
		},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "spectral campaign: %d patterns, %d faults, %d detected (%.1f%% coverage)\n",
		t.spec.Patterns, len(rep.Results), rep.Detected(), rep.Coverage())
	// The memoized/spectra split stays out of the text (it is in the
	// JSON fields): it depends on detect-worker scheduling and on the
	// memo table a resumed retry rebuilds, and the text must be a
	// function of the spec alone.
	fmt.Fprintf(&b, "engine: %d lanes zero-diff screened\n", stats.Screened)
	if stats.Quarantined > 0 {
		fmt.Fprintf(&b, "PARTIAL: %d faults quarantined (no verdict)\n", stats.Quarantined)
	}
	if partial && stats.Quarantined == 0 {
		fmt.Fprintf(&b, "PARTIAL: interrupted; verdicts cover completed batches only\n")
	}
	res.Text = b.String()
	return res
}

// mcTask runs the E6 Table 2 Monte-Carlo study; its Text is exactly
// what `experiments -table2` prints, for any worker count.
type mcTask struct {
	spec Spec
}

func (t *mcTask) prepare(_ context.Context) (uint64, error) {
	return fnv1a(fnvOffset, fmt.Sprintf("mc|%d|%d|%d|%d|",
		t.spec.Devices, t.spec.MCSamples, t.spec.CaptureN, t.spec.Seed)), nil
}

func (t *mcTask) run(ctx context.Context, env taskEnv) (*Result, error) {
	res, err := experiments.Table2(experiments.Table2Options{
		Devices:    t.spec.Devices,
		Seed:       t.spec.Seed,
		N:          t.spec.CaptureN,
		MCSamples:  t.spec.MCSamples,
		Workers:    env.workers,
		Ctx:        ctx,
		Checkpoint: env.ckpt,
	})
	if err != nil {
		return nil, err
	}
	// Text matches `experiments -table2` stdout byte for byte: the CLI
	// Fprintln's Format(), so the table ends with a blank line.
	out := &Result{Kind: "mc", Text: res.Format() + "\n", MC: &MCResult{Devices: res.Devices}}
	for _, row := range res.Rows {
		r := MCLossRow{
			Parameter: row.Parameter,
			ErrSigma:  row.ErrSigma,
			MCFCL:     row.MC.FCL,
			MCYL:      row.MC.YL,
			MCSamples: row.MC.Samples,
		}
		if len(row.Sweep) > 0 {
			r.FCL = row.Sweep[0].Losses.FCL
			r.YL = row.Sweep[0].Losses.YL
		}
		out.MC.Rows = append(out.MC.Rows, r)
	}
	return out, nil
}

// socTask runs the E9 multi-core SOC test-planning sweep; its Text is
// exactly what `experiments -e9` prints, for any worker count.
type socTask struct {
	spec Spec
}

func (t *socTask) prepare(_ context.Context) (uint64, error) {
	h := fnv1a(fnvOffset, fmt.Sprintf("soc|%d|%d|", t.spec.Seed, t.spec.Iterations))
	for _, w := range t.spec.TAMWidths {
		h = fnv1a(h, fmt.Sprintf("%d,", w))
	}
	h = fnv1a(h, "|")
	for _, id := range t.spec.Cores {
		h = fnv1a(h, id+",")
	}
	return fnv1a(h, "|"), nil
}

func (t *socTask) run(ctx context.Context, env taskEnv) (*Result, error) {
	res, err := experiments.SOCPlan(experiments.SOCOptions{
		Widths:     t.spec.TAMWidths,
		Cores:      t.spec.Cores,
		Iterations: t.spec.Iterations,
		Seed:       t.spec.Seed,
		Workers:    env.workers,
		Ctx:        ctx,
		Checkpoint: env.ckpt,
	})
	if err != nil {
		return nil, err
	}
	// Text matches `experiments -e9` stdout byte for byte: the CLI
	// Fprintln's Format(), so the last table ends with a blank line.
	out := &Result{
		Kind: "soc",
		Text: res.Format() + "\n",
		SOC:  &SOCResult{Cores: len(res.SOC.Cores), Tests: res.SOC.NumTests()},
	}
	for i, sch := range res.Schedules {
		out.SOC.Rows = append(out.SOC.Rows, SOCSweepRow{
			Width:          res.Widths[i],
			MakespanCycles: sch.Makespan,
			BoundCycles:    sch.LowerBound,
			PackWidth:      sch.PackWidth,
			EffectiveWidth: sch.EffectiveWidth,
			Utilization:    sch.Utilization(),
		})
	}
	return out, nil
}

// translateTask runs the referral-error Monte Carlo of one
// propagation-translated parameter on the sharded engine.
type translateTask struct {
	spec Spec
}

func (t *translateTask) prepare(_ context.Context) (uint64, error) {
	return fnv1a(fnvOffset, fmt.Sprintf("translate|%s|%s|%d|%d|%d|",
		t.spec.Param, t.spec.Method, t.spec.Samples, t.spec.BatchSize, t.spec.Seed)), nil
}

func (t *translateTask) run(ctx context.Context, env taskEnv) (*Result, error) {
	spec, err := experiments.BuildDefaultSpec()
	if err != nil {
		return nil, err
	}
	method := params.Adaptive
	if t.spec.Method == "nominal-gains" {
		method = params.NominalGains
	}
	est, err := translate.EstimateReferralError(ctx, spec, params.Kind(t.spec.Param), method,
		translate.MCConfig{
			Samples:        t.spec.Samples,
			Seed:           t.spec.Seed,
			Workers:        env.workers,
			BatchSize:      t.spec.BatchSize,
			Checkpoint:     env.ckpt,
			CheckpointName: "referral",
		})
	if err != nil {
		return nil, err
	}
	res := &Result{
		Kind: "translate",
		Translate: &TranslateResult{
			Param:         t.spec.Param,
			Method:        t.spec.Method,
			Sigma:         est.Sigma,
			Mean:          est.Mean,
			P95:           est.P95,
			AnalyticSigma: est.AnalyticSigma,
			Samples:       est.Samples,
		},
	}
	res.Text = fmt.Sprintf(
		"referral error %s [%s]: σ=%.6g mean=%.6g p95=%.6g (analytic σ=%.6g, %d draws)\n",
		t.spec.Param, t.spec.Method, est.Sigma, est.Mean, est.P95, est.AnalyticSigma, est.Samples)
	return res, nil
}
