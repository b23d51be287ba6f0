package main

import (
	"math"
	"math/cmplx"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The recording machine is a share of a host whose speed shifts for
// minutes at a time: a fixed loop timed in 5 s windows ran at 25 ms
// per pass for 20 s, then at 45 ms for two minutes. Every wall time
// the benchmark measures moves with it, so it also times a fixed
// reference kernel three times a round while no job runs, and reports
// its times multiplied by refProbe over the median of those probes:
// the times the run would have measured on a machine where the probe
// takes refProbe (see README.md).

// refProbe is the probe time the scaled metrics are quoted at, about
// the probe's time on the recording machine.
const refProbe = 20 * time.Millisecond

// probeReps is how many times one probe point runs the kernel; the
// point is their median.
const probeReps = 15

// probeSize is the kernel's transform length: 256 KiB of complex128
// per goroutine, past the first-level caches. probePasses is the
// transforms of one rep.
const (
	probeSize   = 1 << 14
	probePasses = 24
)

// speedProbe times the reference kernel: probePasses in-place radix-2
// FFTs of probeSize points, shared out pass by pass to `clients`
// goroutines as the engines share out their work. It allocates
// nothing while timed, so the benchmark's own heap cannot move it, and
// it is the benchmark's own code, so a change to the program cannot
// move it either. The result is the median of probeReps wall times.
func speedProbe() time.Duration {
	bufs := make([][]complex128, clients)
	for i := range bufs {
		bufs[i] = make([]complex128, probeSize)
	}
	// Collect the last round's garbage and hand the freed memory back
	// to the OS first, so neither a collection of the server's heap nor
	// the runtime's background scavenger runs beside the probe.
	debug.FreeOSMemory()
	ds := make([]time.Duration, probeReps)
	for i := range ds {
		t0 := time.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := range bufs {
			wg.Add(1)
			go func(x []complex128) {
				defer wg.Done()
				for p := int(next.Add(1)); p <= probePasses; p = int(next.Add(1)) {
					probeInput(x, p)
					probeFFT(x)
				}
			}(bufs[c])
		}
		wg.Wait()
		ds[i] = time.Since(t0)
	}
	for _, x := range bufs {
		sink += x[1]
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[len(ds)/2]
}

// sink keeps the kernel's results live.
var sink complex128

// probeInput fills x with a two-tone signal.
func probeInput(x []complex128, p int) {
	n := float64(len(x))
	for i := range x {
		t := float64(i) / n
		x[i] = complex(math.Sin(2*math.Pi*float64(17+p)*t)+0.5*math.Cos(2*math.Pi*53*t), 0)
	}
}

// probeFFT is an in-place iterative radix-2 FFT; len(x) is a power of
// two.
func probeFFT(x []complex128) {
	n := len(x)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		w := cmplx.Rect(1, -2*math.Pi/float64(size))
		for start := 0; start < n; start += size {
			wk := complex(1, 0)
			for k := 0; k < size/2; k++ {
				a, b := x[start+k], x[start+k+size/2]*wk
				x[start+k], x[start+k+size/2] = a+b, a-b
				wk *= w
			}
		}
	}
}
