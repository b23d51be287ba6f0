package obs

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// WriteReport writes a command's run report: the metrics text when
// metrics is set, then the trace when trace is set. The report goes to
// w, or to a file created at path when path is not empty; the file's
// Close error is returned when nothing failed before it. Nil-safe: a
// nil registry writes nothing (the file is still created).
func (r *Registry) WriteReport(w io.Writer, metrics, trace bool, path string) (err error) {
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w = f
	}
	if metrics {
		if err := r.WriteText(w); err != nil {
			return err
		}
	}
	if trace {
		return r.WriteTrace(w)
	}
	return nil
}

// WriteText renders the registry in the Prometheus text exposition
// format (counters and gauges as plain samples, histograms as
// cumulative `_bucket{le=...}` series with `_sum` and `_count`, plus
// `_min`/`_max` gauges for the exact extremes). Metric families are
// emitted in sorted name order so the report is diffable. Nil-safe: a
// nil registry writes nothing.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	cn, cv := r.snapshotCounters()
	sort.Strings(cn)
	for _, n := range cn {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, cv[n]); err != nil {
			return err
		}
	}
	gn, gv := r.snapshotGauges()
	sort.Strings(gn)
	for _, n := range gn {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", n, n, fmtFloat(gv[n])); err != nil {
			return err
		}
	}
	hn, hv := r.snapshotHists()
	sort.Strings(hn)
	for _, n := range hn {
		if err := writeHistText(w, n, hv[n]); err != nil {
			return err
		}
	}
	return nil
}

func writeHistText(w io.Writer, name string, s HistSnapshot) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	// Cumulative buckets: the under-range mass sits at le=Lo, each bin
	// closes at its upper edge, and the over-range mass only reaches
	// +Inf (which always equals the total count).
	cum := s.Under
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, fmtFloat(s.Lo), cum); err != nil {
		return err
	}
	width := 0.0
	if len(s.Counts) > 0 {
		width = (s.Hi - s.Lo) / float64(len(s.Counts))
	}
	for i, c := range s.Counts {
		cum += c
		le := s.Lo + width*float64(i+1)
		if i == len(s.Counts)-1 {
			le = s.Hi // avoid float drift on the top edge
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, fmtFloat(le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.N); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, fmtFloat(s.Sum), name, s.N); err != nil {
		return err
	}
	if s.N > 0 {
		if _, err := fmt.Fprintf(w, "# TYPE %s_min gauge\n%s_min %s\n# TYPE %s_max gauge\n%s_max %s\n",
			name, name, fmtFloat(s.Min), name, name, fmtFloat(s.Max)); err != nil {
			return err
		}
	}
	return nil
}

// fmtFloat renders a float in the Prometheus sample syntax.
func fmtFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}

// WriteTrace renders the span ring as an indented run report, spans
// in start order, depth as indentation:
//
//	TRACE        start          duration  span
//	             0.000ms       152.402ms  campaign.run
//	             0.113ms        13.207ms    campaign.baseline
//
// Nil-safe: a nil registry writes nothing.
func (r *Registry) WriteTrace(w io.Writer) error {
	if r == nil {
		return nil
	}
	spans := r.Spans()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if _, err := fmt.Fprintf(w, "TRACE %14s %15s  span\n", "start", "duration"); err != nil {
		return err
	}
	for _, sp := range spans {
		indent := ""
		for d := 0; d < sp.Depth; d++ {
			indent += "  "
		}
		if _, err := fmt.Fprintf(w, "%20.3fms %13.3fms  %s%s\n",
			float64(sp.Start.Microseconds())/1000,
			float64(sp.Duration.Microseconds())/1000,
			indent, sp.Name); err != nil {
			return err
		}
	}
	return nil
}
