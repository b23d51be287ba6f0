package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"mstx/internal/obs"
)

// Handler builds the service mux: the job API under /v1, health, and
// the obs debug surface (/metrics, /trace, pprof) off the server's own
// registry — one listener serves both the API and ops planes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Liveness only: the process is up and serving. Degradation
		// lives on /readyz.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	obs.RegisterDebug(mux, s.reg)
	return mux
}

// readyKind is one job kind's entry in the /readyz body.
type readyKind struct {
	// State is the kind's breaker state: closed, open or half_open.
	State string `json:"state"`
	// Ready reports whether submissions of this kind are admitted
	// (closed or probing).
	Ready bool `json:"ready"`
}

// readyResponse is the /readyz body: per-kind degradation, not a
// binary bit. The HTTP status goes 503 only when nothing can be
// served — shutdown, or every kind's breaker open.
type readyResponse struct {
	Ready    bool                 `json:"ready"`
	Stopping bool                 `json:"stopping,omitempty"`
	Queued   int                  `json:"queued"`
	Kinds    map[string]readyKind `json:"kinds"`
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	stopping := s.stopping
	queued := s.q.queued
	s.mu.Unlock()
	resp := readyResponse{Stopping: stopping, Queued: queued, Kinds: make(map[string]readyKind, len(s.breakers))}
	allOpen := len(s.breakers) > 0
	for kind, b := range s.breakers {
		st, ready := b.snapshot()
		resp.Kinds[kind] = readyKind{State: st, Ready: ready}
		if ready {
			allOpen = false
		}
	}
	resp.Ready = !stopping && !allOpen
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// submitRequest is the POST /v1/jobs body: a job spec plus an optional
// tenant (the X-Mstx-Tenant header is the fallback).
type submitRequest struct {
	Tenant string `json:"tenant,omitempty"`
	Spec
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, errType ErrType, msg string) {
	writeJSON(w, status, map[string]*ErrorBody{
		"error": {Type: errType, Message: msg},
	})
}

// maxSubmitBytes caps a POST /v1/jobs body. A job spec is a few
// hundred bytes; the cap only stops one request from pinning memory.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, ErrTypeBadRequest,
			fmt.Sprintf("request body exceeds the %d-byte cap", maxSubmitBytes))
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrTypeBadRequest, "read body: "+err.Error())
		return
	}
	var req submitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, ErrTypeBadRequest, "decode body: "+err.Error())
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = r.Header.Get("X-Mstx-Tenant")
	}
	j, err := s.Submit(tenant, req.Spec)
	var boe *BreakerOpenError
	switch {
	case errors.Is(err, ErrQueueFull):
		// The hint is computed from the live backlog and drain rate
		// (configured RetryAfter as the floor), so a saturated queue
		// tells clients how long it actually needs.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, ErrTypeQueueFull, err.Error())
		return
	case errors.As(err, &boe):
		w.Header().Set("Retry-After", strconv.Itoa(ceilSeconds(boe.RetryAfter)))
		writeError(w, http.StatusServiceUnavailable, ErrTypeBreakerOpen, err.Error())
		return
	case errors.Is(err, ErrStopped):
		writeError(w, http.StatusServiceUnavailable, ErrTypeShutdown, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, ErrTypeBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, s.Snapshot(j))
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrTypeNotFound, "no such job "+r.PathValue("id"))
	}
	return j, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, s.Snapshot(j))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	s.Cancel(j.ID)
	writeJSON(w, http.StatusAccepted, s.Snapshot(j))
}

// handleResult serves the terminal result text (the CLI-diffable
// table). Non-terminal jobs get 404 with a typed body; failed and
// canceled jobs get 409 carrying the job's own error type.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	v := s.Snapshot(j)
	switch {
	case v.State == StateDone || v.State == StatePartial:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, v.Result.Text)
	case v.State == StateDeadline && v.Result != nil:
		// Deadline expiry with a salvaged partial: serve what the
		// engine finished before the budget ran out.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, v.Result.Text)
	case terminal(v.State):
		writeError(w, http.StatusConflict, v.Error.Type, v.Error.Message)
	default:
		writeError(w, http.StatusNotFound, ErrTypeNotFound,
			"job "+j.ID+" is "+v.State.String()+"; no result yet")
	}
}

// spanEvent is one completed engine span on the SSE stream.
type spanEvent struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	Depth   int     `json:"depth"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

// handleEvents streams job progress as server-sent events off the
// job's private obs registry: `state` on transitions, `span` for each
// engine span completing in the job's ring, `counters` whenever the
// job's counter snapshot changes, and a final `done` carrying the
// terminal snapshot. The poll cadence is Config.EventPoll; if more
// spans complete between polls than the ring holds, the overflow is
// dropped (the ring is a window, not a log).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, ErrTypeEngine, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func(event string, v any) {
		data, _ := json.Marshal(v)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
	}

	var lastState string
	var lastSpans []obs.SpanRecord
	var lastCounters map[string]int64
	poll := func() bool {
		v := s.Snapshot(j)
		if st := v.State.String(); st != lastState {
			lastState = st
			emit("state", map[string]string{"id": j.ID, "state": st})
		}
		spans := j.Events().Spans()
		for _, rec := range newSpans(lastSpans, spans) {
			emit("span", spanEvent{
				Name:    rec.Name,
				Parent:  rec.Parent,
				Depth:   rec.Depth,
				StartMS: float64(rec.Start) / float64(time.Millisecond),
				DurMS:   float64(rec.Duration) / float64(time.Millisecond),
			})
		}
		lastSpans = spans
		if c := j.Events().Counters(); countersChanged(lastCounters, c) {
			lastCounters = c
			emit("counters", c)
		}
		if terminal(v.State) {
			emit("done", v)
			return false
		}
		return true
	}

	if !poll() {
		return
	}
	tick := time.NewTicker(s.cfg.EventPoll)
	defer tick.Stop()
	// Heartbeat comments keep idle streams alive through proxies and
	// LB idle timeouts; SSE clients ignore `:`-prefixed lines by spec.
	hb := time.NewTicker(s.cfg.Heartbeat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			// Server going down mid-stream; the client reconnects
			// against the resumed job.
			return
		case <-j.Done():
			poll()
			return
		case <-hb.C:
			fmt.Fprint(w, ": ping\n\n")
			fl.Flush()
		case <-tick.C:
			if !poll() {
				return
			}
		}
	}
}

// newSpans returns the suffix of cur not yet emitted given the prev
// snapshot: it finds prev's newest record in cur and returns what
// follows; if the ring rotated it away, all of cur is new (minus
// whatever the rotation dropped).
func newSpans(prev, cur []obs.SpanRecord) []obs.SpanRecord {
	if len(prev) == 0 {
		return cur
	}
	last := prev[len(prev)-1]
	for i := len(cur) - 1; i >= 0; i-- {
		if cur[i] == last {
			return cur[i+1:]
		}
	}
	return cur
}

func countersChanged(prev, cur map[string]int64) bool {
	if len(prev) != len(cur) {
		return len(cur) != 0
	}
	for k, v := range cur {
		if prev[k] != v {
			return true
		}
	}
	return false
}
