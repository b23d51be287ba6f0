package msignal

import (
	"math"
	"sync"
	"testing"
)

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestTableSetConcurrent drives one set from several goroutines, each
// with its own CosTables, over a small key space that mixes the two
// expressions at the same (a, b, fs, n): every lookup must return the
// bits a private fill gives, each key must be published once, and the
// byte count must match what is stored. Run it under -race.
func TestTableSetConcurrent(t *testing.T) {
	const (
		workers = 8
		rounds  = 200
		fs      = 64e6
	)
	type carrier struct {
		e    Expr
		a, b float64
		n    int
	}
	var keys []carrier
	for _, f := range []float64{9.8e6, 10.5e6, 15.5e6} {
		for _, n := range []int{512, 2048} {
			keys = append(keys, carrier{ToneExpr, f, 0, n}, carrier{ClockExpr, f, 0, n})
		}
		keys = append(keys, carrier{ToneExpr, f, 0.25, 1024})
	}
	want := make([][]float64, len(keys))
	for i, k := range keys {
		want[i] = new(CosTable).Cosines(k.e, k.a, k.b, fs, k.n)
	}
	// The two expressions round differently: a key without the
	// expression would hand a clock table to a tone.
	if sameBits(want[0], want[1]) {
		t.Fatal("tone and clock expressions agree bit for bit; the expression test is vacuous")
	}
	set := new(TableSet)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tabs := [2]CosTable{{Set: set}, {Set: set}}
			for r := 0; r < rounds; r++ {
				i := (w*7 + r*3) % len(keys)
				k := keys[i]
				got := tabs[r%2].Cosines(k.e, k.a, k.b, fs, k.n)
				if !sameBits(got, want[i]) {
					t.Errorf("worker %d: key %d differs from its private fill", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if len(set.tabs) != len(keys) {
		t.Fatalf("set holds %d tables, want one per key (%d)", len(set.tabs), len(keys))
	}
	bytes := 0
	for k, tab := range set.tabs {
		bytes += 8 * len(tab)
		if k.n != len(tab) {
			t.Fatalf("table of length %d stored under n %d", len(tab), k.n)
		}
	}
	if set.bytes != bytes {
		t.Fatalf("set accounts %d bytes, stores %d", set.bytes, bytes)
	}
}

// TestCosTableNeverWritesBorrowed: after a CosTable has aliased a
// shared table, a miss fills its own buffer and leaves the shared one
// intact, and a jitter Reset never hands out the shared buffer.
func TestCosTableNeverWritesBorrowed(t *testing.T) {
	const fs, n = 64e6, 1024
	set := new(TableSet)
	tab := CosTable{Set: set}
	shared := tab.Cosines(ToneExpr, 1e6, 0, fs, n)
	keep := append([]float64(nil), shared...)
	if got := tab.Cosines(ToneExpr, 1e6, 0, fs, n); &got[0] != &shared[0] {
		t.Fatal("a key hit did not return the current table")
	}
	// A miss the set cannot serve: force the private path by filling
	// the set to its cap.
	set.bytes = TableSetBytes
	priv := tab.Cosines(ToneExpr, 2e6, 0, fs, n)
	if &priv[0] == &shared[0] {
		t.Fatal("a private fill reused the borrowed table")
	}
	buf := tab.Reset(n)
	for i := range buf {
		buf[i] = 7
	}
	if !sameBits(shared, keep) {
		t.Fatal("a shared table was written after it was published")
	}
	if !sameBits(tab.Cosines(ToneExpr, 1e6, 0, fs, n), keep) {
		t.Fatal("re-borrowing the shared table after a Reset lost its bits")
	}
}

// TestTableSetCapFallback fills a set to its byte cap with real
// publishes, then renders signals whose tables no longer fit: each
// render must be bit-identical to Render (no set), and the set must
// neither grow past the cap nor take the new tables.
func TestTableSetCapFallback(t *testing.T) {
	const fs = 64e6
	set := new(TableSet)
	big := TableSetBytes / 8 / 4 // four tables fill the set exactly
	for i := 0; i < 4; i++ {
		NewTone(1e6*float64(i+1), 1).RenderInto(make([]float64, big), fs, nil, &Carriers{Set: set})
	}
	if set.bytes != TableSetBytes || len(set.tabs) != 4 {
		t.Fatalf("set holds %d tables, %d bytes; want 4 tables, %d bytes", len(set.tabs), set.bytes, TableSetBytes)
	}
	c := Carriers{Set: set}
	for _, r := range []struct {
		s Signal
		n int
	}{
		{NewTwoTone(9.7e6, 9.8e6, 0.05).AddSpur(15.5e6, 0.001), 256},
		{NewTwoTone(9.7e6, 9.8e6, 0.05).AddSpur(15.5e6, 0.001), 18432},
		{NewTone(9.8e6, 0.004), 18432},
		{NewTone(1e6, 0.3), big}, // a table the full set still serves
	} {
		got := make([]float64, r.n)
		r.s.RenderInto(got, fs, nil, &c)
		if !sameBits(got, r.s.Render(r.n, fs, nil)) {
			t.Fatalf("%v at n=%d: render on a full set differs from Render", r.s, r.n)
		}
	}
	if set.bytes != TableSetBytes || len(set.tabs) != 4 {
		t.Fatalf("full set changed: %d tables, %d bytes", len(set.tabs), set.bytes)
	}
}
