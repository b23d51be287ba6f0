// Package server turns the mstx engines into a multi-tenant job
// service: a bounded scheduler with per-tenant weighted fair queueing
// and admission control, a content-addressed single-flight result
// cache keyed by the engines' FNV-1a stimulus identity, per-job
// observability registries streamed as server-sent events, and a
// checkpointed job ledger so a killed server resumes in-flight work
// bit-identically on restart. cmd/mstxd wraps it in an HTTP binary.
//
// The package is deliberately not an engine package (no //mstxvet:engine
// tag): a service legitimately reads wall clocks for timeouts, SSE
// cadence and Retry-After hints. Everything deterministic stays in the
// engines it dispatches to.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"mstx/internal/obs"
	"mstx/internal/resilient"
)

// State is a job's lifecycle state. queued and running are live (a
// queued job may be waiting in the fair queue or backing off before a
// retry); the rest are terminal — see terminal() in supervise.go, the
// one place that enumerates them. Its wire form, in JSON views and in
// the ledger, is its name in stateNames.
type State uint8

const (
	StateQueued State = iota
	StateRunning
	StateDone
	StatePartial // finished with quarantined work
	StateFailed
	StateCanceled
	StateDeadline // wall budget expired (partial result salvaged when the engine had one)
)

var stateNames = [...]string{
	StateQueued:   "queued",
	StateRunning:  "running",
	StateDone:     "done",
	StatePartial:  "partial",
	StateFailed:   "failed",
	StateCanceled: "canceled",
	StateDeadline: "deadline_exceeded",
}

func (s State) String() string { return enumString(stateNames[:], int(s), "State") }

// MarshalText writes the state's wire name.
func (s State) MarshalText() ([]byte, error) { return enumMarshal(stateNames[:], int(s), "state") }

// UnmarshalText accepts only a wire name from stateNames.
func (s *State) UnmarshalText(b []byte) error {
	i, err := enumParse(stateNames[:], string(b), "state")
	if err == nil {
		*s = State(i)
	}
	return err
}

// ErrType classifies a job failure in typed error bodies and job
// views. The zero value means no error; its wire name is "".
type ErrType uint8

const (
	errTypeNone ErrType = iota
	ErrTypeBadRequest
	ErrTypeNotFound
	ErrTypeQueueFull
	ErrTypeCanceled
	ErrTypeDeadline
	ErrTypePanic
	ErrTypeEngine
	ErrTypeShutdown
	ErrTypeBreakerOpen
)

var errTypeNames = [...]string{
	errTypeNone:        "",
	ErrTypeBadRequest:  "bad_request",
	ErrTypeNotFound:    "not_found",
	ErrTypeQueueFull:   "queue_full",
	ErrTypeCanceled:    "canceled",
	ErrTypeDeadline:    "deadline",
	ErrTypePanic:       "panic",
	ErrTypeEngine:      "engine",
	ErrTypeShutdown:    "shutdown",
	ErrTypeBreakerOpen: "breaker_open",
}

func (e ErrType) String() string { return enumString(errTypeNames[:], int(e), "ErrType") }

// MarshalText writes the error type's wire name.
func (e ErrType) MarshalText() ([]byte, error) {
	return enumMarshal(errTypeNames[:], int(e), "error type")
}

// UnmarshalText accepts only a wire name from errTypeNames.
func (e *ErrType) UnmarshalText(b []byte) error {
	i, err := enumParse(errTypeNames[:], string(b), "error type")
	if err == nil {
		*e = ErrType(i)
	}
	return err
}

func enumString(names []string, i int, typ string) string {
	if i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("%s(%d)", typ, i)
}

func enumMarshal(names []string, i int, what string) ([]byte, error) {
	if i >= len(names) {
		return nil, fmt.Errorf("server: invalid job %s %d", what, i)
	}
	return []byte(names[i]), nil
}

func enumParse(names []string, name, what string) (int, error) {
	for i, n := range names {
		if n == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown job %s %q", what, name)
}

// ErrQueueFull is returned by Submit when admission control rejects
// the job; the HTTP layer maps it to 429 with Retry-After.
var ErrQueueFull = errors.New("server: queue full")

// ErrStopped is returned by Submit after Close/Kill.
var ErrStopped = errors.New("server: stopped")

// BreakerOpenError is returned by Submit while the job kind's circuit
// breaker is shedding load; the HTTP layer maps it to 503 with
// Retry-After = the remaining open interval.
type BreakerOpenError struct {
	Kind       string
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("server: %s breaker open (retry in %s)", e.Kind, e.RetryAfter.Round(time.Millisecond))
}

// LedgerError is resume's refusal of a ledger it cannot replay
// without one job overwriting another: a ledger that lists a job ID
// twice, or whose IDs leave Submit no fresh one to issue.
type LedgerError struct {
	ID     string
	Reason string
}

func (e *LedgerError) Error() string {
	return fmt.Sprintf("server: resume: ledger job %s: %s", e.ID, e.Reason)
}

// Config parameterizes a Server. Zero values take the stated defaults.
type Config struct {
	// Workers is the number of concurrent jobs (scheduler slots).
	// Default 2.
	Workers int
	// EngineWorkers is the per-job engine fan-out passed to the
	// campaign/MC engines (0 = each engine's own default).
	EngineWorkers int

	// MaxQueuedPerTenant and MaxQueuedTotal bound the backlog; a
	// submission over either bound is rejected with ErrQueueFull.
	// Defaults 16 and 64.
	MaxQueuedPerTenant int
	MaxQueuedTotal     int
	// Weights sets per-tenant scheduling weights (jobs started per
	// fair-queue cycle). Unlisted tenants get weight 1.
	Weights map[string]int
	// RetryAfter is the backoff hint attached to queue-full
	// rejections. Default 1s.
	RetryAfter time.Duration

	// CheckpointDir enables durability: the job ledger and each job's
	// engine snapshots live under it. Empty = in-memory only.
	CheckpointDir string
	// CheckpointEvery is the engine snapshot cadence in merged engine
	// lanes (MC lanes, fault batches, SOC widths). <= 1 saves at every
	// lane.
	CheckpointEvery int
	// Resume replays the ledger found in CheckpointDir on startup:
	// terminal jobs are served from the ledger, live ones re-enqueued
	// against their saved engine checkpoints.
	Resume bool

	// Registry is the server's own ops registry (/metrics, /trace).
	// nil = a fresh obs.New().
	Registry *obs.Registry
	// JobRing is each job's span-ring capacity (SSE event source).
	// Default 256.
	JobRing int
	// EventPoll is the SSE poll cadence. Default 200ms.
	EventPoll time.Duration
	// Heartbeat is the SSE comment-ping cadence keeping idle streams
	// alive through proxies. Default 15s.
	Heartbeat time.Duration

	// DefaultDeadline is applied to jobs that submit no deadline_ms
	// (0 = unlimited); MaxDeadline caps every job's budget, including
	// unlimited ones (0 = no cap). The budget is a wall clock over the
	// job's whole supervised run: every attempt and every retry
	// backoff, measured from first dispatch.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// RetryMax is how many automatic retries a retryable failure
	// (engine error, panic quarantine) gets before the job lands in
	// failed. Default 0: retries are opt-in, a failure is a failure.
	RetryMax int
	// RetryBase/RetryCap shape the capped exponential backoff between
	// attempts (defaults 100ms / 5s); RetrySeed (default 1) drives the
	// deterministic jitter, so a fixed configuration has a fixed retry
	// timeline.
	RetryBase time.Duration
	RetryCap  time.Duration
	RetrySeed int64

	// Per-kind circuit breaker policy: a sliding window of
	// BreakerWindow engine-attempt outcomes (default 16) opens the
	// kind's breaker when at least BreakerMinSamples outcomes (default
	// 8) show a failure rate ≥ BreakerThreshold (default 0.5). An open
	// breaker sheds submissions of that kind for BreakerOpenFor
	// (default 5s), then admits BreakerProbes probe jobs (default 1)
	// whose outcome closes or re-opens it.
	BreakerWindow     int
	BreakerMinSamples int
	BreakerThreshold  float64
	BreakerOpenFor    time.Duration
	BreakerProbes     int
}

func (c *Config) withDefaults() Config {
	o := *c
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.MaxQueuedPerTenant <= 0 {
		o.MaxQueuedPerTenant = 16
	}
	if o.MaxQueuedTotal <= 0 {
		o.MaxQueuedTotal = 64
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.Registry == nil {
		o.Registry = obs.New()
	}
	if o.JobRing <= 0 {
		o.JobRing = 256
	}
	if o.EventPoll <= 0 {
		o.EventPoll = 200 * time.Millisecond
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 15 * time.Second
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 100 * time.Millisecond
	}
	if o.RetryCap <= 0 {
		o.RetryCap = 5 * time.Second
	}
	if o.RetrySeed == 0 {
		o.RetrySeed = 1
	}
	if o.BreakerWindow <= 0 {
		o.BreakerWindow = 16
	}
	if o.BreakerMinSamples <= 0 {
		o.BreakerMinSamples = 8
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 0.5
	}
	if o.BreakerOpenFor <= 0 {
		o.BreakerOpenFor = 5 * time.Second
	}
	if o.BreakerProbes <= 0 {
		o.BreakerProbes = 1
	}
	return o
}

// Job is one submitted unit of work. Mutable fields are guarded by the
// owning Server's mutex; done closes exactly once on reaching a
// terminal state (or never, if the server is killed first).
type Job struct {
	ID     string
	Tenant string
	Spec   Spec

	state    State
	errType  ErrType
	errMsg   string
	result   *Result
	identity uint64
	hasIdent bool
	cacheHit bool

	task   task
	reg    *obs.Registry
	cancel context.CancelFunc
	// cancelRequested distinguishes a client DELETE from other
	// interruptions when classifying the run error.
	cancelRequested bool
	done            chan struct{}

	// attempts counts completed engine attempts that ended in a
	// retryable failure (i.e. retries scheduled so far); deadlineAt is
	// the job's wall budget, fixed at first dispatch so retries and
	// backoffs spend from the same allowance. deadlineSet marks jobs
	// with no budget so the resolution runs once.
	attempts    int
	deadlineAt  time.Time
	deadlineSet bool
}

// Server is the job scheduler. New starts its workers immediately;
// Close (graceful) or Kill (abrupt, for crash tests) stops them.
type Server struct {
	cfg Config
	reg *obs.Registry

	mu       sync.Mutex
	cond     *sync.Cond
	q        *fairQueue
	jobs     map[string]*Job
	order    []string // job IDs in submission order, for the ledger
	nextID   int64
	stopping bool
	killed   bool

	cache  *resultCache
	ledger *resilient.Checkpointer

	// breakers is one circuit breaker per job kind (fixed at New).
	breakers map[string]*breaker
	// retryTimers holds the pending backoff timer of every job waiting
	// to be re-queued; guarded by mu, drained on shutdown and cancel.
	retryTimers map[string]*time.Timer
	// avgAttempt is an EWMA of recent attempt wall times, the drain
	// rate behind the 429 Retry-After hint. Guarded by mu.
	avgAttempt time.Duration

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	// Metrics (registered once; obsnil: server_* names are owned here).
	mSubmitted *obs.Counter
	mCompleted *obs.Counter
	mFailed    *obs.Counter
	mCanceled  *obs.Counter
	mDeadline  *obs.Counter
	mRetries   *obs.Counter
	mCacheHit  *obs.Counter
	mCacheMiss *obs.Counter
	mRejected  *obs.Counter
	gQueued    *obs.Gauge
	gRunning   *obs.Gauge
}

const ledgerName = "mstxd_jobs"
const ledgerVersion = 1

// ledgerRecord is one job's durable state; Result rides along for
// terminal jobs so a restarted server can still serve them. State and
// ErrType hold wire names, not enum values, so the ledger format does
// not depend on constant order; restore parses them back.
type ledgerRecord struct {
	ID       string
	Tenant   string
	Spec     Spec
	State    string
	ErrType  string
	ErrMsg   string
	Identity string
	CacheHit bool
	Attempts int
	Result   *Result
}

type ledgerState struct {
	NextID int64
	Jobs   []ledgerRecord
}

// New builds and starts a server. With Resume set it replays the
// ledger first, so previously queued/running jobs are dispatched again
// (their engine checkpoints make the replay bit-identical) before any
// new submissions.
func New(cfg Config) (*Server, error) {
	c := cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         c,
		reg:         c.Registry,
		q:           newFairQueue(c.MaxQueuedPerTenant, c.MaxQueuedTotal, c.Weights),
		jobs:        make(map[string]*Job),
		cache:       newResultCache(),
		breakers:    make(map[string]*breaker),
		retryTimers: make(map[string]*time.Timer),
		baseCtx:     ctx,
		stop:        cancel,
	}
	s.cond = sync.NewCond(&s.mu)
	if c.CheckpointDir != "" {
		s.ledger = &resilient.Checkpointer{Dir: c.CheckpointDir, Resume: c.Resume}
	}
	bcfg := breakerConfig{
		window:     c.BreakerWindow,
		minSamples: c.BreakerMinSamples,
		threshold:  c.BreakerThreshold,
		openFor:    c.BreakerOpenFor,
		probes:     c.BreakerProbes,
	}
	for _, kind := range jobKinds {
		s.breakers[kind] = newBreaker(kind, bcfg, s.reg, time.Now)
	}
	s.mSubmitted = s.reg.Counter("server_jobs_submitted_total")
	s.mCompleted = s.reg.Counter("server_jobs_completed_total")
	s.mFailed = s.reg.Counter("server_jobs_failed_total")
	s.mCanceled = s.reg.Counter("server_jobs_canceled_total")
	s.mDeadline = s.reg.Counter("server_jobs_deadline_total")
	s.mRetries = s.reg.Counter("server_retries_total")
	s.mCacheHit = s.reg.Counter("server_cache_hits_total")
	s.mCacheMiss = s.reg.Counter("server_cache_misses_total")
	s.mRejected = s.reg.Counter("server_queue_rejections_total")
	s.gQueued = s.reg.Gauge("server_jobs_queued")
	s.gRunning = s.reg.Gauge("server_jobs_running")
	if err := s.resume(); err != nil {
		cancel()
		return nil, err
	}
	for i := 0; i < c.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// resume replays the ledger: terminal records become servable jobs,
// live ones are validated and re-enqueued in submission order.
func (s *Server) resume() error {
	if s.ledger == nil || !s.cfg.Resume {
		return nil
	}
	var st ledgerState
	ok, err := s.ledger.Load(ledgerName, ledgerVersion, &st)
	if err != nil {
		return fmt.Errorf("server: resume: %w", err)
	}
	if !ok {
		return nil
	}
	next, err := ledgerNextID(&st)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID = next
	for i := range st.Jobs {
		rec := &st.Jobs[i]
		j := &Job{
			ID:       rec.ID,
			Tenant:   rec.Tenant,
			Spec:     rec.Spec,
			errMsg:   rec.ErrMsg,
			result:   rec.Result,
			cacheHit: rec.CacheHit,
			attempts: rec.Attempts,
			reg:      obs.NewWithRing(s.cfg.JobRing),
			done:     make(chan struct{}),
		}
		if err := rec.restore(j); err != nil {
			j.state, j.errType, j.errMsg = StateFailed, ErrTypeEngine, fmt.Sprintf("resume: %v", err)
			j.result = nil
		}
		if id, err := strconv.ParseUint(rec.Identity, 16, 64); err == nil && rec.Identity != "" {
			j.identity, j.hasIdent = id, true
			if j.state == StateDone && !j.result.Partial {
				s.cache.succeed(id, j.result)
			}
		}
		switch j.state {
		case StateQueued, StateRunning:
			// A job caught mid-flight by the crash: rebuild its task
			// and run it again. Its engine checkpoints under
			// job_<id>/ make the re-run a resume, not a restart.
			t, err := newTask(&j.Spec)
			if err != nil {
				j.state = StateFailed
				j.errType, j.errMsg = ErrTypeEngine, fmt.Sprintf("resume: %v", err)
				close(j.done)
				break
			}
			j.task = t
			j.state = StateQueued
			if !s.q.push(j) {
				j.state = StateFailed
				j.errType, j.errMsg = ErrTypeQueueFull, "resume: queue full"
				close(j.done)
			}
		default:
			close(j.done)
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
	}
	s.gQueued.Set(float64(s.q.queued))
	s.saveLedgerLocked()
	return nil
}

// ledgerNextID checks that the ledger's job IDs are unique and returns
// the counter Submit continues from: at least the ledger's NextID and
// every restored "j<n>", so a new job never takes a restored ID.
func ledgerNextID(st *ledgerState) (int64, error) {
	next := max(st.NextID, 0)
	seen := make(map[string]bool, len(st.Jobs))
	for i := range st.Jobs {
		id := st.Jobs[i].ID
		if seen[id] {
			return 0, &LedgerError{ID: id, Reason: "listed twice"}
		}
		seen[id] = true
		if rest, ok := strings.CutPrefix(id, "j"); ok {
			if n, err := strconv.ParseInt(rest, 10, 64); err == nil {
				next = max(next, n)
			}
		}
	}
	if next == math.MaxInt64 {
		return 0, &LedgerError{ID: "j" + strconv.FormatInt(next, 10), Reason: "no job ID left after it"}
	}
	return next, nil
}

// restore parses the record's state and error type into j — the one
// place a ledger string becomes a State or ErrType. It rejects names
// outside the tables and a done or partial record without the result
// /result would serve.
func (rec *ledgerRecord) restore(j *Job) error {
	if err := j.state.UnmarshalText([]byte(rec.State)); err != nil {
		return err
	}
	if err := j.errType.UnmarshalText([]byte(rec.ErrType)); err != nil {
		return err
	}
	if (j.state == StateDone || j.state == StatePartial) && rec.Result == nil {
		return fmt.Errorf("%s job has no result", j.state)
	}
	return nil
}

// Submit validates spec, admits the job for tenant and wakes a worker.
// The returned Job is live; poll it via Get or stream via SSE.
func (s *Server) Submit(tenant string, spec Spec) (*Job, error) {
	if tenant == "" {
		tenant = "default"
	}
	t, err := newTask(&spec) // normalizes spec in place
	if err != nil {
		return nil, err
	}
	if b := s.breakers[spec.Kind]; b != nil {
		if ok, retryIn := b.admit(); !ok {
			return nil, &BreakerOpenError{Kind: spec.Kind, RetryAfter: retryIn}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping {
		return nil, ErrStopped
	}
	s.nextID++
	j := &Job{
		ID:     "j" + strconv.FormatInt(s.nextID, 10),
		Tenant: tenant,
		Spec:   spec,
		state:  StateQueued,
		task:   t,
		reg:    obs.NewWithRing(s.cfg.JobRing),
		done:   make(chan struct{}),
	}
	if !s.q.push(j) {
		s.mRejected.Inc()
		return nil, ErrQueueFull
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mSubmitted.Inc()
	s.gQueued.Set(float64(s.q.queued))
	s.saveLedgerLocked()
	s.cond.Signal()
	return j, nil
}

// Get returns the job by ID.
func (s *Server) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cancellation: a queued job terminates immediately, a
// running one has its context canceled and terminates when the engine
// unwinds. Terminal jobs are left alone. Reports whether the job
// exists.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return false
	}
	switch j.state {
	case StateQueued:
		// Either waiting in the fair queue or backing off before a
		// retry; stop whichever is holding it.
		s.q.remove(j)
		if t := s.retryTimers[j.ID]; t != nil {
			t.Stop()
			delete(s.retryTimers, j.ID)
		}
		s.gQueued.Set(float64(s.q.queued))
		s.finishLocked(j, StateCanceled, ErrTypeCanceled, "canceled before start")
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	return true
}

// Close stops the server gracefully: no new admissions, running jobs
// are interrupted, workers drained. Interrupted jobs keep their last
// persisted ledger state (queued/running), so a Resume restart picks
// them back up.
func (s *Server) Close() { s.shutdown() }

// Kill is the crash-test stop: identical interruption semantics to
// Close (the ledger is already saved transition-by-transition, like a
// process that lost power), kept separate so tests read as intended.
func (s *Server) Kill() { s.shutdown() }

func (s *Server) shutdown() {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.stopping = true
	s.killed = true
	// Backoff jobs stay StateQueued in the ledger: a Resume restart
	// re-dispatches them against their checkpoints, no timer needed.
	for id, t := range s.retryTimers {
		t.Stop()
		delete(s.retryTimers, id)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.stop()
	s.wg.Wait()
}

// Registry returns the server's ops registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// worker is one scheduler slot: pop by weighted round-robin, run,
// repeat.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.q.queued == 0 && !s.stopping {
			s.cond.Wait()
		}
		if s.stopping {
			s.mu.Unlock()
			return
		}
		j := s.q.pop()
		if j == nil {
			s.mu.Unlock()
			continue
		}
		j.state = StateRunning
		if !j.deadlineSet {
			// The wall budget starts at first dispatch and is shared
			// by every subsequent attempt and backoff.
			if d := jobDeadline(&j.Spec, s.cfg.DefaultDeadline, s.cfg.MaxDeadline); d > 0 {
				j.deadlineAt = time.Now().Add(d)
			}
			j.deadlineSet = true
		}
		var ctx context.Context
		var cancel context.CancelFunc
		if !j.deadlineAt.IsZero() {
			ctx, cancel = context.WithDeadline(s.baseCtx, j.deadlineAt)
		} else {
			ctx, cancel = context.WithCancel(s.baseCtx)
		}
		j.cancel = cancel
		s.gQueued.Set(float64(s.q.queued))
		s.gRunning.Add(1)
		s.saveLedgerLocked()
		s.mu.Unlock()

		start := time.Now()
		s.runJob(ctx, j)
		cancel()
		dur := time.Since(start)

		s.mu.Lock()
		if s.avgAttempt == 0 {
			s.avgAttempt = dur
		} else {
			s.avgAttempt = (3*s.avgAttempt + dur) / 4
		}
		s.gRunning.Add(-1)
		s.mu.Unlock()
	}
}

// runJob computes j: content identity, single-flight claim, engine
// run under the job's own obs registry, terminal classification.
func (s *Server) runJob(ctx context.Context, j *Job) {
	jctx := obs.WithRegistry(ctx, j.reg)
	id, err := j.task.prepare(jctx)
	if err != nil {
		s.finish(j, StateFailed, ErrTypeEngine, err.Error())
		return
	}
	s.mu.Lock()
	j.identity, j.hasIdent = id, true
	s.mu.Unlock()

	for {
		leader, cached, wait := s.cache.begin(id)
		if cached != nil {
			s.mCacheHit.Inc()
			s.mu.Lock()
			j.cacheHit = true
			s.mu.Unlock()
			s.finishResult(j, cached)
			return
		}
		if leader {
			break
		}
		select {
		case <-wait:
			// Leader finished (or failed); re-check the cache, or
			// claim the vacated leadership.
		case <-jctx.Done():
			s.finishInterrupted(j, jctx, resilient.CtxErr(jctx), nil)
			return
		}
	}
	s.mCacheMiss.Inc()

	env := taskEnv{workers: s.cfg.EngineWorkers}
	if s.cfg.CheckpointDir != "" {
		env.ckpt = &resilient.Checkpointer{
			Dir:    filepath.Join(s.cfg.CheckpointDir, "job_"+j.ID),
			Every:  s.cfg.CheckpointEvery,
			Resume: true,
		}
	}
	res, err := j.task.run(jctx, env)
	if res != nil {
		res.Identity = fmt.Sprintf("%016x", id)
	}
	b := s.breakers[j.Spec.Kind]
	if err != nil {
		s.cache.fail(id)
		var pe *resilient.PanicError
		switch {
		case errors.As(err, &pe):
			b.record(true)
			s.failOrRetry(j, ErrTypePanic, pe.Error())
		case resilient.Interrupted(err):
			// Cancel/deadline/shutdown say nothing about engine
			// health; no breaker outcome.
			s.finishInterrupted(j, jctx, err, res)
		default:
			b.record(true)
			s.failOrRetry(j, ErrTypeEngine, err.Error())
		}
		return
	}
	b.record(false)
	if res.Partial {
		// A degraded result is real but not canonical: serve it to
		// this job, release followers to recompute their own.
		s.cache.fail(id)
	} else {
		s.cache.succeed(id, res)
	}
	s.finishResult(j, res)
}

// finishInterrupted classifies an interruption: client cancel, job
// deadline, or server shutdown (which leaves the job resumable). An
// expired deadline is a first-class terminal state, and whatever
// partial result the engine salvaged on the way out (res may be nil)
// is served with it.
func (s *Server) finishInterrupted(j *Job, ctx context.Context, err error, res *Result) {
	s.mu.Lock()
	stopping := s.stopping
	requested := j.cancelRequested
	s.mu.Unlock()
	switch {
	case requested:
		s.finish(j, StateCanceled, ErrTypeCanceled, "canceled by request")
	case errors.Is(err, resilient.ErrDeadline) || errors.Is(ctx.Err(), context.DeadlineExceeded):
		s.mu.Lock()
		if res != nil {
			j.result = res
		}
		s.finishLocked(j, StateDeadline, ErrTypeDeadline, "job deadline exceeded")
		s.mu.Unlock()
	case stopping:
		// Server going down: no transition. The ledger still says
		// queued/running, which is exactly what resume needs.
	default:
		s.finish(j, StateCanceled, ErrTypeCanceled, err.Error())
	}
}

// failOrRetry handles a retryable engine failure: schedule another
// attempt under the retry policy, or land the job in failed when the
// policy (or the job's deadline budget) is exhausted. The retry keeps
// the job's StateQueued outside the fair queue while its backoff timer
// runs; requeueRetry puts it back when the timer fires.
func (s *Server) failOrRetry(j *Job, errType ErrType, errMsg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if terminal(j.state) {
		return
	}
	// No retry scheduling while stopping — the shutdown path already
	// drained the timers; the failure lands as-is.
	if !s.stopping && s.cfg.RetryMax > 0 && j.attempts < s.cfg.RetryMax && retryable(errType) {
		delay := retryDelay(s.cfg.RetryBase, s.cfg.RetryCap, s.cfg.RetrySeed, j.ID, j.attempts+1)
		if j.deadlineAt.IsZero() || time.Now().Add(delay).Before(j.deadlineAt) {
			j.attempts++
			j.state = StateQueued
			j.errType, j.errMsg = errType, errMsg // last error, visible while backing off
			j.cancel = nil
			s.mRetries.Inc()
			s.saveLedgerLocked()
			id := j.ID
			s.retryTimers[id] = time.AfterFunc(delay, func() { s.requeueRetry(id) })
			return
		}
		errMsg += "; retry budget exhausted"
	}
	s.finishLocked(j, StateFailed, errType, errMsg)
}

// requeueRetry moves a backed-off job back into the fair queue. The
// push bypasses admission bounds: the job was admitted once and never
// left the server's accounting.
func (s *Server) requeueRetry(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.retryTimers, id)
	j := s.jobs[id]
	if j == nil || s.stopping || j.state != StateQueued {
		return
	}
	s.q.forcePush(j)
	s.gQueued.Set(float64(s.q.queued))
	s.cond.Signal()
}

// retryAfterSeconds is the live 429 Retry-After hint: the estimated
// backlog drain time, floored by the configured static value.
func (s *Server) retryAfterSeconds() int {
	s.mu.Lock()
	queued := s.q.queued
	avg := s.avgAttempt
	s.mu.Unlock()
	return ceilSeconds(retryAfterHint(queued, avg, s.cfg.Workers, s.cfg.RetryAfter))
}

func (s *Server) finishResult(j *Job, res *Result) {
	state := StateDone
	if res.Partial {
		state = StatePartial
	}
	s.mu.Lock()
	j.result = res
	s.finishLocked(j, state, errTypeNone, "")
	s.mu.Unlock()
}

func (s *Server) finish(j *Job, state State, errType ErrType, errMsg string) {
	s.mu.Lock()
	s.finishLocked(j, state, errType, errMsg)
	s.mu.Unlock()
}

// finishLocked moves j to a terminal state, bumps metrics, folds the
// job's counters into the server registry (so /metrics aggregates
// engine work across jobs), persists the ledger and releases waiters.
func (s *Server) finishLocked(j *Job, state State, errType ErrType, errMsg string) {
	if terminal(j.state) {
		return
	}
	j.state = state
	j.errType, j.errMsg = errType, errMsg
	switch state {
	case StateDone, StatePartial:
		s.mCompleted.Inc()
	case StateFailed:
		s.mFailed.Inc()
	case StateCanceled:
		s.mCanceled.Inc()
	case StateDeadline:
		s.mDeadline.Inc()
	}
	for name, v := range j.reg.Counters() {
		if v != 0 {
			s.reg.Counter(name).Add(v)
		}
	}
	s.saveLedgerLocked()
	close(j.done)
}

// saveLedgerLocked snapshots all jobs. Called with s.mu held on every
// transition; a save failure is non-fatal for the live server (jobs
// keep running) but loses resumability, so it is surfaced as a
// server_ledger_errors_total bump rather than silently dropped.
func (s *Server) saveLedgerLocked() {
	if s.ledger == nil || s.killed {
		return
	}
	st := ledgerState{NextID: s.nextID}
	for _, id := range s.order {
		j := s.jobs[id]
		rec := ledgerRecord{
			ID:       j.ID,
			Tenant:   j.Tenant,
			Spec:     j.Spec,
			State:    j.state.String(),
			ErrType:  j.errType.String(),
			ErrMsg:   j.errMsg,
			Attempts: j.attempts,
		}
		if j.hasIdent {
			rec.Identity = fmt.Sprintf("%016x", j.identity)
		}
		rec.CacheHit = j.cacheHit
		rec.Result = j.result
		st.Jobs = append(st.Jobs, rec)
	}
	if err := s.ledger.Save(ledgerName, ledgerVersion, &st); err != nil {
		s.reg.Counter("server_ledger_errors_total").Inc()
	}
}

// Snapshot is a point-in-time public view of a job.
type Snapshot struct {
	ID       string     `json:"id"`
	Tenant   string     `json:"tenant"`
	Kind     string     `json:"kind"`
	State    State      `json:"state"`
	Identity string     `json:"identity,omitempty"`
	CacheHit bool       `json:"cache_hit,omitempty"`
	Attempts int        `json:"attempts,omitempty"`
	Error    *ErrorBody `json:"error,omitempty"`
	Result   *Result    `json:"result,omitempty"`
}

// ErrorBody is the typed error payload used in job views and HTTP
// error responses.
type ErrorBody struct {
	Type    ErrType `json:"type"`
	Message string  `json:"message"`
}

// Snapshot returns j's current public view.
func (s *Server) Snapshot(j *Job) Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := Snapshot{
		ID:       j.ID,
		Tenant:   j.Tenant,
		Kind:     j.Spec.Kind,
		State:    j.state,
		CacheHit: j.cacheHit,
		Attempts: j.attempts,
		Result:   j.result,
	}
	if j.hasIdent {
		v.Identity = fmt.Sprintf("%016x", j.identity)
	}
	if j.errType != errTypeNone {
		v.Error = &ErrorBody{Type: j.errType, Message: j.errMsg}
	}
	return v
}

// Done exposes the job's terminal-notification channel (closed when
// the job reaches a terminal state).
func (j *Job) Done() <-chan struct{} { return j.done }

// Events exposes the job's private obs registry, the SSE event
// source.
func (j *Job) Events() *obs.Registry { return j.reg }
