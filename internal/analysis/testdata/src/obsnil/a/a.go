// Package a is one half of the obsnil namespace fixture: package b
// completes each collision.
package a

import "obs"

// Metrics registers this package's share of the collision names.
func Metrics() {
	reg := obs.Default()
	reg.Counter("a_events_total")
	reg.Counter("fx_mixed_total")                 // want `more than one kind`
	reg.Histogram("fx_geom_seconds", 0, 1, 64)    // want `conflicting geometries`
	reg.Counter("fx_owner_total")                 // want `registered from multiple packages`
	reg.Histogram("fx_shared_seconds", 0, 10, 32) // want `registered from multiple packages`
}
