// Package obs is a stand-in for mstx/internal/obs: the three
// registration methods whose name literals the obsnil fixture checks.
package obs

// Registry is the metrics sink.
type Registry struct{}

// Default returns the installed registry.
func Default() *Registry { return nil }

// Counter returns a named counter handle.
func (r *Registry) Counter(name string) *Counter { return nil }

// Gauge returns a named gauge handle.
func (r *Registry) Gauge(name string) *Gauge { return nil }

// Histogram returns a named histogram with the given geometry.
func (r *Registry) Histogram(name string, lo, hi float64, buckets int) *Histogram { return nil }

// Counter is a monotone counter handle.
type Counter struct{}

// Gauge is a set-point handle.
type Gauge struct{}

// Histogram is a bucketed distribution handle.
type Histogram struct{}
