package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"mstx/internal/server"
)

// sseSpan is one engine span as the server streams it.
type sseSpan struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent"`
	Depth   int     `json:"depth"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

// jobRecord is one job as the client saw it.
type jobRecord struct {
	Index int // job order in the run; -1 for setup jobs
	Job   jobSpec
	// Send is when the POST was sent, Accepted when its response was
	// read, Open when the event stream was requested and Done when the
	// final `done` event arrived.
	Send, Accepted, Open, Done time.Time
	Snap                       server.Snapshot
	SSEBytes                   int
	// Norm is the spec as the server normalized it (defaults filled
	// in), the input of the traced run's direct layer calls.
	Norm server.Spec
	// Spans are the job's engine spans, decoded only on traced rounds.
	Spans []sseSpan
	Err   error
}

// engineExtent returns the start of the job's first engine span and
// the end of its last, in ms from the job's admission (the server
// creates the job's span registry inside Submit). Only meaningful for
// records with spans.
func (r *jobRecord) engineExtent() (first, last float64) {
	first = math.Inf(1)
	for _, sp := range r.Spans {
		first = min(first, sp.StartMS)
		last = max(last, sp.StartMS+sp.DurMS)
	}
	return first, last
}

// latencyMS is the job's end-to-end latency: POST sent to `done`.
func (r *jobRecord) latencyMS() float64 { return ms(r.Done.Sub(r.Send)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// client drives one server over loopback HTTP.
type client struct {
	http *http.Client
	base string
}

// runJob submits j and reads its event stream until `done`. Refusals
// (429/503) and transport failures land in the record's Err, which the
// output checks count as a failed job.
func (c *client) runJob(ctx context.Context, j jobSpec, traced bool) jobRecord {
	rec := jobRecord{Job: j}
	body, err := json.Marshal(j.Spec)
	if err != nil {
		rec.Err = err
		return rec
	}
	rec.Send = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		rec.Err = err
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		rec.Err = fmt.Errorf("submit: %w", err)
		return rec
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.Accepted = time.Now()
	if err != nil {
		rec.Err = fmt.Errorf("submit: read body: %w", err)
		return rec
	}
	if resp.StatusCode != http.StatusCreated {
		rec.Err = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
		return rec
	}
	var snap server.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		rec.Err = fmt.Errorf("submit: decode: %w", err)
		return rec
	}
	rec.Snap = snap
	rec.Open = time.Now()
	if err := c.readEvents(ctx, snap.ID, &rec, traced); err != nil {
		rec.Err = fmt.Errorf("events %s: %w", snap.ID, err)
	}
	return rec
}

// readEvents consumes /v1/jobs/{id}/events until the `done` event,
// storing the terminal snapshot and, when traced, the span events.
func (c *client) readEvents(ctx context.Context, id string, rec *jobRecord, traced bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	event := ""
	for {
		line, err := br.ReadString('\n')
		rec.SSEBytes += len(line)
		if err != nil {
			return fmt.Errorf("stream ended before done: %w", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data := []byte(line[len("data: "):])
			switch {
			case event == "done":
				rec.Done = time.Now()
				return json.Unmarshal(data, &rec.Snap)
			case traced && event == "span":
				var sp sseSpan
				if err := json.Unmarshal(data, &sp); err != nil {
					return fmt.Errorf("span event: %w", err)
				}
				rec.Spans = append(rec.Spans, sp)
			}
		}
	}
}

// metricsSnapshot reads the server's Prometheus /metrics counters.
func (c *client) metricsSnapshot(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		var name string
		var v float64
		if n, _ := fmt.Sscanf(line, "%s %g", &name, &v); n == 2 {
			out[name] = v
		}
	}
	return out, sc.Err()
}
