package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"mstx/internal/resilient"
)

// settle waits for the goroutine count to return to baseline, failing
// the test if it does not within the deadline — the service must not
// leak workers, SSE pollers or engine goroutines across jobs.
func settle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not settle: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// quickTranslate is the fast deterministic job used throughout the
// service tests (a few thousand engine samples, well under 100ms).
func quickTranslate() Spec {
	return Spec{Kind: "translate", Param: "IIP3", Samples: 4096, BatchSize: 512, Seed: 7}
}

func newTestService(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJob(t *testing.T, ts *httptest.Server, tenant string, spec any) (*http.Response, Snapshot) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Mstx-Tenant", tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	raw, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(raw, &snap)
	return resp, snap
}

func getJob(t *testing.T, ts *httptest.Server, id string) Snapshot {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: %s", id, resp.Status)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap := getJob(t, ts, id)
		if terminal(snap.State) {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, snap.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// errorBody decodes a typed error response.
func errorBody(t *testing.T, resp *http.Response) ErrorBody {
	t.Helper()
	defer resp.Body.Close()
	var wrap struct {
		Error ErrorBody `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wrap); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if wrap.Error.Type == errTypeNone {
		t.Fatal("error body has no type")
	}
	return wrap.Error
}

// TestServiceRoundTrip is the full submit → stream → result trip over
// httptest: SSE events arrive off the job's span ring, the result text
// is served, and an identical resubmission is a cache hit that never
// re-enters the engine.
func TestServiceRoundTrip(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, ts := newTestService(t, Config{Workers: 2, EventPoll: 10 * time.Millisecond})

	resp, snap := postJob(t, ts, "acme", quickTranslate())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}
	if snap.ID == "" || snap.Tenant != "acme" || snap.Kind != "translate" {
		t.Fatalf("bad snapshot: %+v", snap)
	}

	// Stream SSE concurrently with the run.
	events := make(chan string, 64)
	sseResp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(events)
		defer sseResp.Body.Close()
		sc := bufio.NewScanner(sseResp.Body)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				events <- name
			}
		}
	}()

	final := waitTerminal(t, ts, snap.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s (%+v)", final.State, final.Error)
	}
	if final.Result == nil || final.Result.Translate == nil || final.Result.Text == "" {
		t.Fatalf("missing result payload: %+v", final.Result)
	}
	if final.Identity == "" || final.Result.Identity != final.Identity {
		t.Fatalf("identity not threaded: job %q result %q", final.Identity, final.Result.Identity)
	}

	// The SSE stream must terminate on its own with a done event, and
	// must have carried engine progress (spans from the job's ring).
	var names []string
	for name := range events {
		names = append(names, name)
	}
	if len(names) == 0 || names[len(names)-1] != "done" {
		t.Fatalf("SSE stream ended %v, want trailing done", names)
	}
	var sawSpan bool
	for _, n := range names {
		if n == "span" {
			sawSpan = true
		}
	}
	if !sawSpan {
		t.Fatalf("SSE stream %v carried no engine spans", names)
	}

	// Result endpoint serves the CLI-diffable text.
	rr, err := ts.Client().Get(ts.URL + "/v1/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(rr.Body)
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK || string(text) != final.Result.Text {
		t.Fatalf("result endpoint: %s %q", rr.Status, text)
	}

	// Identical resubmission (lowercase alias spelling, different
	// tenant): same identity, served from cache without re-running the
	// engine.
	misses0 := srv.Registry().Counters()["server_cache_misses_total"]
	resp2, snap2 := postJob(t, ts, "other", Spec{
		Kind: "translate", Param: "iip3", Samples: 4096, BatchSize: 512, Seed: 7,
	})
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("resubmit: %s", resp2.Status)
	}
	final2 := waitTerminal(t, ts, snap2.ID)
	if final2.State != StateDone || !final2.CacheHit {
		t.Fatalf("resubmission not served from cache: %+v", final2)
	}
	if final2.Identity != final.Identity || final2.Result.Text != final.Result.Text {
		t.Fatalf("cache returned a different result")
	}
	c := srv.Registry().Counters()
	if c["server_cache_hits_total"] == 0 {
		t.Fatal("no cache hit recorded")
	}
	if c["server_cache_misses_total"] != misses0 {
		t.Fatalf("resubmission re-entered the engine (misses %d -> %d)",
			misses0, c["server_cache_misses_total"])
	}

	// Typed errors: bad spec and unknown job.
	badResp, _ := postJob(t, ts, "", Spec{Kind: "translate", Param: "nope"})
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %s", badResp.Status)
	}
	nf, err := ts.Client().Get(ts.URL + "/v1/jobs/none")
	if err != nil {
		t.Fatal(err)
	}
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %s", nf.Status)
	}
	if eb := errorBody(t, nf); eb.Type != ErrTypeNotFound {
		t.Fatalf("unknown job error type %q", eb.Type)
	}

	ts.Close()
	srv.Close()
	settle(t, baseline)
}

// TestServiceFailpoints re-runs the round trip with PR 4 failpoints
// firing inside the engines: an injected lane error fails the job with
// a typed "engine" body, an injected panic surfaces as "panic", and a
// quarantined campaign batch degrades the job to partial — all without
// leaking a single goroutine.
func TestServiceFailpoints(t *testing.T) {
	defer resilient.Install(nil)
	baseline := runtime.NumGoroutine()
	srv, ts := newTestService(t, Config{Workers: 1})

	// 1. mcengine.lane error → failed / engine.
	fp := resilient.NewFailpoints()
	fp.Set("mcengine.lane", resilient.Action{Err: errors.New("injected lane fault"), After: 2})
	resilient.Install(fp)
	_, snap := postJob(t, ts, "chaos", quickTranslate())
	final := waitTerminal(t, ts, snap.ID)
	if final.State != StateFailed || final.Error == nil || final.Error.Type != ErrTypeEngine {
		t.Fatalf("lane error: got %s %+v", final.State, final.Error)
	}
	if fp.Hits("mcengine.lane") == 0 {
		t.Fatal("mcengine.lane never fired")
	}
	// The result endpoint serves the same typed error with 409.
	rr, err := ts.Client().Get(ts.URL + "/v1/jobs/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if rr.StatusCode != http.StatusConflict {
		t.Fatalf("failed job result: %s", rr.Status)
	}
	if eb := errorBody(t, rr); eb.Type != ErrTypeEngine {
		t.Fatalf("failed job result error type %q", eb.Type)
	}

	// 2. mcengine.lane panic → failed / panic (the quarantine-less
	// translate path turns it into a *resilient.PanicError).
	fp = resilient.NewFailpoints()
	fp.Set("mcengine.lane", resilient.Action{PanicValue: "injected lane panic", Times: 1})
	resilient.Install(fp)
	spec := quickTranslate()
	spec.Seed = 8 // distinct identity; the cache must not mask the panic
	_, snap = postJob(t, ts, "chaos", spec)
	final = waitTerminal(t, ts, snap.ID)
	if final.State != StateFailed || final.Error == nil || final.Error.Type != ErrTypePanic {
		t.Fatalf("lane panic: got %s %+v", final.State, final.Error)
	}

	// 3. campaign.sim_batch panic → quarantined batch → partial, with
	// a real (degraded) result attached.
	fp = resilient.NewFailpoints()
	fp.Set("campaign.sim_batch", resilient.Action{PanicValue: "injected batch panic", Times: 1})
	resilient.Install(fp)
	_, snap = postJob(t, ts, "chaos", Spec{Kind: "campaign", Patterns: 64})
	final = waitTerminal(t, ts, snap.ID)
	if final.State != StatePartial {
		t.Fatalf("quarantined campaign: got %s %+v", final.State, final.Error)
	}
	if final.Result == nil || final.Result.Campaign == nil ||
		final.Result.Campaign.Quarantined == 0 || !final.Result.Partial {
		t.Fatalf("partial job missing quarantine accounting: %+v", final.Result)
	}
	if fp.Applied("campaign.sim_batch") == 0 {
		t.Fatal("campaign.sim_batch never applied")
	}

	// 4. A partial result must not poison the cache: with the
	// failpoint disarmed, the identical spec recomputes cleanly.
	resilient.Install(nil)
	_, snap = postJob(t, ts, "chaos", Spec{Kind: "campaign", Patterns: 64})
	final = waitTerminal(t, ts, snap.ID)
	if final.State != StateDone || final.CacheHit {
		t.Fatalf("recompute after partial: got %s cacheHit=%v", final.State, final.CacheHit)
	}

	ts.Close()
	srv.Close()
	settle(t, baseline)
}

// TestServiceCancel covers DELETE for both queued and running jobs.
func TestServiceCancel(t *testing.T) {
	defer resilient.Install(nil)
	baseline := runtime.NumGoroutine()
	srv, ts := newTestService(t, Config{Workers: 1})

	// Slow every lane down so the first job is reliably mid-run and
	// the second reliably still queued when the cancels land.
	fp := resilient.NewFailpoints()
	fp.Set("mcengine.lane", resilient.Action{Delay: 20 * time.Millisecond})
	resilient.Install(fp)

	_, running := postJob(t, ts, "", quickTranslate())
	spec2 := quickTranslate()
	spec2.Seed = 9
	_, queued := postJob(t, ts, "", spec2)

	deadline := time.Now().Add(5 * time.Second)
	for getJob(t, ts, running.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	for _, id := range []string{queued.ID, running.ID} {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("cancel %s: %s", id, resp.Status)
		}
		final := waitTerminal(t, ts, id)
		if final.State != StateCanceled || final.Error == nil || final.Error.Type != ErrTypeCanceled {
			t.Fatalf("cancel %s: got %s %+v", id, final.State, final.Error)
		}
	}

	resilient.Install(nil)
	ts.Close()
	srv.Close()
	settle(t, baseline)
}

// TestServiceAdmission fills the bounded queue and expects 429 with a
// Retry-After hint and a typed queue_full body, per tenant and
// globally.
func TestServiceAdmission(t *testing.T) {
	defer resilient.Install(nil)
	srv, ts := newTestService(t, Config{
		Workers:            1,
		MaxQueuedPerTenant: 1,
		MaxQueuedTotal:     2,
		RetryAfter:         3 * time.Second,
	})

	// Pin the single worker on a slow job so submissions stay queued.
	fp := resilient.NewFailpoints()
	fp.Set("mcengine.lane", resilient.Action{Delay: 50 * time.Millisecond})
	resilient.Install(fp)
	seed := int64(100)
	next := func(tenant string) (*http.Response, Snapshot) {
		seed++
		sp := quickTranslate()
		sp.Seed = seed
		return postJob(t, ts, tenant, sp)
	}
	if resp, _ := next("a"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("pin job: %s", resp.Status)
	}
	// Worker takes the first job; give it a moment to dequeue.
	time.Sleep(50 * time.Millisecond)

	if resp, _ := next("a"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("tenant a first queued job: %s", resp.Status)
	}
	resp, snap := next("a") // second queued job for tenant a → per-tenant bound
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("per-tenant overflow: %s", resp.Status)
	}
	if resp.Header.Get("Retry-After") != "3" {
		t.Fatalf("Retry-After %q, want 3", resp.Header.Get("Retry-After"))
	}
	// postJob decodes the typed error envelope into the snapshot's
	// Error field (same "error" JSON key).
	if snap.Error == nil || snap.Error.Type != ErrTypeQueueFull {
		t.Fatalf("overflow error body %+v", snap.Error)
	}

	if resp, _ := next("b"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("tenant b queued job: %s", resp.Status)
	}
	resp, _ = next("c") // queue total is 2 → global bound
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("global overflow: %s", resp.Status)
	}
	if srv.Registry().Counters()["server_queue_rejections_total"] != 2 {
		t.Fatalf("rejections %d, want 2", srv.Registry().Counters()["server_queue_rejections_total"])
	}
	resilient.Install(nil)
}

// TestHandlerSpecDefaults ensures submit responses reflect the
// normalized spec (defaults made explicit), so clients see exactly
// what identity their job computes under.
func TestHandlerSpecDefaults(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	resp, snap := postJob(t, ts, "", map[string]any{"kind": "mc", "devices": 6})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}
	final := waitTerminal(t, ts, snap.ID)
	if final.State != StateDone {
		t.Fatalf("mc quick job: %s %+v", final.State, final.Error)
	}
	if final.Result.MC == nil || final.Result.MC.Devices != 6 || len(final.Result.MC.Rows) == 0 {
		t.Fatalf("mc payload: %+v", final.Result.MC)
	}
	if final.Result.Text == "" {
		t.Fatalf("mc text missing")
	}
}

// TestSubmitBodyCap pins the submit body bound at its boundary: a
// spec padded to exactly maxSubmitBytes is accepted, one byte more is
// a 413 with a typed body naming the cap, and an empty body is a 400.
func TestSubmitBodyCap(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	spec, err := json.Marshal(quickTranslate())
	if err != nil {
		t.Fatal(err)
	}
	// Pad inside the object so the decoder must read every byte.
	padded := func(size int) []byte {
		return append(append([]byte("{"), bytes.Repeat([]byte(" "), size-len(spec))...), spec[1:]...)
	}
	for _, tc := range []struct {
		name     string
		body     []byte
		status   int
		wantType ErrType
		wantMsg  string
	}{
		{"at cap", padded(maxSubmitBytes), http.StatusCreated, errTypeNone, ""},
		{"cap+1", padded(maxSubmitBytes + 1), http.StatusRequestEntityTooLarge, ErrTypeBadRequest, strconv.Itoa(maxSubmitBytes)},
		{"empty", nil, http.StatusBadRequest, ErrTypeBadRequest, "decode body"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				resp.Body.Close()
				t.Fatalf("status %s, want %d", resp.Status, tc.status)
			}
			if tc.wantType == errTypeNone {
				resp.Body.Close()
				return
			}
			eb := errorBody(t, resp)
			if eb.Type != tc.wantType || !strings.Contains(eb.Message, tc.wantMsg) {
				t.Fatalf("error body %+v, want type %s naming %q", eb, tc.wantType, tc.wantMsg)
			}
		})
	}
}
