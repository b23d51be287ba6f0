package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"mstx/internal/obs"
)

// span is one recorded interval. Spans of one job (or one direct
// layer call) share a Trace ID; Parent 0 marks a root.
type span struct {
	Trace   string  `json:"trace"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"` // since the run began
	EndUS   float64 `json:"end_us"`
}

// tracer keeps the run's spans in memory until the run ends. It is
// filled after each round from the job records, so it needs no lock.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0)) / float64(time.Microsecond) }

func (t *tracer) add(trace string, parent int, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, StartUS: t.us(start), EndUS: t.us(end)})
	return id
}

// rawSpan is an engine span before it has an ID: parent by name and
// depth, as obs records it.
type rawSpan struct {
	name, parent string
	depth        int
	start, end   time.Time
}

// attach gives engine spans IDs, parenting each under the enclosing
// span of its recorded parent name one level up, and depth-0 spans
// under root.
func (t *tracer) attach(trace string, root int, raws []rawSpan) {
	sort.SliceStable(raws, func(a, b int) bool { return raws[a].depth < raws[b].depth })
	type placed struct {
		raw rawSpan
		id  int
	}
	var done []placed
	for _, r := range raws {
		parent := root
		for i := len(done) - 1; i >= 0; i-- {
			p := done[i]
			if r.depth > 0 && p.raw.depth == r.depth-1 && p.raw.name == r.parent &&
				!r.start.Before(p.raw.start) && !r.end.After(p.raw.end.Add(time.Microsecond)) {
				parent = p.id
				break
			}
		}
		done = append(done, placed{r, t.add(trace, parent, r.name, r.start, r.end)})
	}
}

// addJob records a job's client spans and merges in its engine spans.
// The server creates the job's span registry inside the POST handler,
// so its span offsets are anchored at the POST send: under CPU load
// the POST response can arrive well after the engine has started.
func (t *tracer) addJob(trace string, rec *jobRecord) {
	root := t.add(trace, 0, "job", rec.Send, rec.Done)
	t.add(trace, root, "server.submit", rec.Send, rec.Accepted)
	wait := t.add(trace, root, "server.wait", rec.Open, rec.Done)
	var raws []rawSpan
	for _, sp := range rec.Spans {
		start := rec.Send.Add(time.Duration(sp.StartMS * float64(time.Millisecond)))
		raws = append(raws, rawSpan{sp.Name, sp.Parent, sp.Depth, start, start.Add(time.Duration(sp.DurMS * float64(time.Millisecond)))})
	}
	t.attach(trace, wait, raws)
}

// addLayerCall records a direct layer call: the benchmark's own spans
// around its prepare and engine steps, with the engine registry's
// spans beneath.
func (t *tracer) addLayerCall(trace string, lc *layerCall, prepareName, runName string) {
	end := lc.Started.Add(lc.Prepare)
	runStart := lc.RegStart
	root := t.add(trace, 0, "direct", lc.Started, runStart.Add(lc.Run))
	if prepareName != "" {
		t.add(trace, root, prepareName, lc.Started, end)
	}
	run := t.add(trace, root, runName, runStart, runStart.Add(lc.Run))
	var raws []rawSpan
	for _, r := range lc.Reg.Spans() {
		start := lc.RegStart.Add(r.Start)
		raws = append(raws, rawSpan{r.Name, r.Parent, r.Depth, start, start.Add(r.Duration)})
	}
	t.attach(trace, run, raws)
}

// registrySpans returns the durations of the named span in reg, in ms.
func registrySpans(reg *obs.Registry, name string) []float64 {
	var out []float64
	for _, r := range reg.Spans() {
		if r.Name == name {
			out = append(out, ms(r.Duration))
		}
	}
	return out
}

// selfTimes returns, per span name, the median over traces of the
// name's total self time in that trace (ms), for the traces accepted
// by keep.
func (t *tracer) selfTimes(keep func(trace string) bool) map[string]float64 {
	children := make(map[int][]interval)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.StartUS, s.EndUS})
		}
	}
	perTrace := make(map[string]map[string]float64)
	for _, s := range t.spans {
		if !keep(s.Trace) {
			continue
		}
		m := perTrace[s.Trace]
		if m == nil {
			m = make(map[string]float64)
			perTrace[s.Trace] = m
		}
		m[s.Name] += selfTime(interval{s.StartUS, s.EndUS}, children[s.ID]) / 1000
	}
	byName := make(map[string][]float64)
	for _, m := range perTrace {
		for name, v := range m {
			byName[name] = append(byName[name], v)
		}
	}
	out := make(map[string]float64, len(byName))
	for name, vs := range byName {
		out[name], _ = median(vs)
	}
	return out
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
