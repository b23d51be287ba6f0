package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunRejectsBadCaptureLength(t *testing.T) {
	for _, n := range []string{"-1", "0", "3000"} {
		var out, errw bytes.Buffer
		if code := run([]string{"-n", n}, &out, &errw); code != 2 {
			t.Fatalf("-n %s exited %d, want 2", n, code)
		}
		if !strings.Contains(errw.String(), "must be a positive power of two") ||
			!strings.Contains(errw.String(), "Usage") {
			t.Errorf("-n %s: missing diagnostic or usage on stderr:\n%s", n, errw.String())
		}
		if out.Len() != 0 {
			t.Errorf("-n %s wrote to stdout:\n%s", n, out.String())
		}
	}
}

func TestRunUnknownNode(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-n", "256", "-node", "mixer"}, &out, &errw); code != 1 {
		t.Fatalf("unknown node exited %d, want 1", code)
	}
	if !strings.Contains(errw.String(), `unknown node "mixer"`) {
		t.Errorf("missing diagnostic on stderr:\n%s", errw.String())
	}
}

// TestRunDefaultOutput pins the default run's report byte for byte.
func TestRunDefaultOutput(t *testing.T) {
	const want = `node: filter, 4096 samples at 8e+06 Hz
tone 1: 898438 Hz, amplitude 0.07287, power 0.002655
SNR      44.22 dB
SINAD    44.22 dB
THD    -102.33 dB
SFDR     45.29 dB (worst spur at 5e+05 Hz)
ENOB      7.05 bits
floor   -77.32 dBc/bin
`
	var out, errw bytes.Buffer
	if code := run(nil, &out, &errw); code != 0 {
		t.Fatalf("default run exited %d; stderr:\n%s", code, errw.String())
	}
	if out.String() != want {
		t.Errorf("default output changed:\n%s\nwant:\n%s", out.String(), want)
	}
}
