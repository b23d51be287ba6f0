package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// TestSpecCaps pins every spec size cap at its boundary: the cap is
// accepted, cap+1 is rejected naming the field and the cap, 0 takes the
// default (or is rejected where 0 is no valid value), and −1 is
// rejected.
func TestSpecCaps(t *testing.T) {
	widths := func(n int) []int {
		ws := make([]int, n)
		for i := range ws {
			ws[i] = 8
		}
		return ws
	}
	cores := func(n int) []string {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("core-%d", i)
		}
		return ids
	}
	for _, tc := range []struct {
		field  string
		limit  int
		zeroOK bool
		// length fields have no −1 case.
		length bool
		spec   func(v int) Spec
	}{
		{"campaign patterns", maxPatterns, true, false, func(v int) Spec { return Spec{Kind: "campaign", Patterns: v} }},
		{"mc devices", maxDevices, true, false, func(v int) Spec { return Spec{Kind: "mc", Devices: v} }},
		{"mc mc_samples", maxMCSamples, true, false, func(v int) Spec { return Spec{Kind: "mc", MCSamples: v} }},
		{"mc capture_n", maxCaptureN, true, false, func(v int) Spec { return Spec{Kind: "mc", CaptureN: v} }},
		{"translate samples", maxSamples, true, false, func(v int) Spec { return Spec{Kind: "translate", Param: "iip3", Samples: v} }},
		{"soc tam_widths length", maxTAMWidths, true, true, func(v int) Spec { return Spec{Kind: "soc", TAMWidths: widths(v)} }},
		{"soc tam_widths entry", maxTAMWidth, false, false, func(v int) Spec { return Spec{Kind: "soc", TAMWidths: []int{v}} }},
		{"soc cores length", maxCores, true, true, func(v int) Spec { return Spec{Kind: "soc", Cores: cores(v)} }},
		{"soc iterations", maxIterations, true, false, func(v int) Spec { return Spec{Kind: "soc", Iterations: v} }},
	} {
		check := func(v int, wantOK bool, wantMsg ...string) {
			t.Helper()
			sp := tc.spec(v)
			err := sp.normalize()
			if wantOK {
				if err != nil {
					t.Errorf("%s = %d rejected: %v", tc.field, v, err)
				}
				return
			}
			if err == nil {
				t.Errorf("%s = %d accepted", tc.field, v)
				return
			}
			for _, m := range wantMsg {
				if !strings.Contains(err.Error(), m) {
					t.Errorf("%s = %d: error %q lacks %q", tc.field, v, err, m)
				}
			}
		}
		check(tc.limit, true)
		check(tc.limit+1, false, tc.field, "cap "+strconv.Itoa(tc.limit))
		check(0, tc.zeroOK)
		if !tc.length {
			check(-1, false)
		}
	}
}

// TestNegativeSampleCountsRejected pins the two bugs the caps closed:
// negative translate samples ran the default draw count under a
// different identity, and negative mc_samples failed inside the engine
// (counting against the mc breaker). Both are now a 400 bad_request
// naming the field, as is a spec over a cap.
func TestNegativeSampleCountsRejected(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	for _, tc := range []struct {
		spec map[string]any
		want string
	}{
		{map[string]any{"kind": "translate", "param": "iip3", "samples": -5}, "samples -5"},
		{map[string]any{"kind": "mc", "mc_samples": -5}, "mc_samples -5"},
		{map[string]any{"kind": "translate", "param": "iip3", "samples": maxSamples + 1}, "cap " + strconv.Itoa(maxSamples)},
		// Budgets past what a time.Duration holds used to overflow:
		// timeout_sec into a negative deadline_ms, deadline_ms into a
		// wrapped (possibly tiny) duration.
		{map[string]any{"kind": "translate", "param": "iip3", "timeout_sec": 1e300}, "timeout_sec"},
		{map[string]any{"kind": "translate", "param": "iip3", "deadline_ms": maxDeadlineMS + 1}, "deadline_ms"},
	} {
		resp, snap := postJob(t, ts, "", tc.spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%v: status %s, want 400", tc.spec, resp.Status)
		}
		if snap.Error == nil || snap.Error.Type != ErrTypeBadRequest || !strings.Contains(snap.Error.Message, tc.want) {
			t.Fatalf("%v: error body %+v, want bad_request naming %q", tc.spec, snap.Error, tc.want)
		}
	}
}
