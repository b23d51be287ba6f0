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

// freshTables points the process-wide set at an empty one for the
// rest of the test, so its counts see only the test's tables.
func freshTables(t *testing.T) *TableSet {
	prev := processTables
	processTables = new(TableSet)
	t.Cleanup(func() { processTables = prev })
	return processTables
}

// TestTableSetConcurrent drives the set from several goroutines, each
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
		want[i] = new(CosTable).PrivateCosines(k.e, k.a, k.b, fs, k.n)
	}
	// The two expressions round differently: a key without the
	// expression would hand a clock table to a tone.
	if sameBits(want[0], want[1]) {
		t.Fatal("tone and clock expressions agree bit for bit; the expression test is vacuous")
	}
	set := freshTables(t)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var tabs [2]CosTable
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
	if st := SharedTables(); st.Tables != len(keys) || st.Published != len(keys) || st.Evicted != 0 {
		t.Fatalf("set holds %d tables (%d published, %d evicted), want one per key (%d)", st.Tables, st.Published, st.Evicted, len(keys))
	}
	bytes := 0
	for k, e := range set.tabs {
		bytes += 8 * len(e.tab)
		if k.n != len(e.tab) {
			t.Fatalf("table of length %d stored under n %d", len(e.tab), k.n)
		}
	}
	if set.bytes != bytes {
		t.Fatalf("set accounts %d bytes, stores %d", set.bytes, bytes)
	}
}

// TestCosTableNeverWritesBorrowed: after a CosTable has aliased a
// shared table, a private fill and a jitter Reset write its own
// buffer and leave the shared one intact.
func TestCosTableNeverWritesBorrowed(t *testing.T) {
	const fs, n = 64e6, 1024
	freshTables(t)
	var tab CosTable
	shared := tab.Cosines(ToneExpr, 1e6, 0, fs, n)
	keep := append([]float64(nil), shared...)
	if got := tab.Cosines(ToneExpr, 1e6, 0, fs, n); &got[0] != &shared[0] {
		t.Fatal("a key hit did not return the current table")
	}
	priv := tab.PrivateCosines(ToneExpr, 2e6, 0, fs, n)
	if &priv[0] == &shared[0] {
		t.Fatal("a private fill reused the borrowed table")
	}
	if st := SharedTables(); st.Tables != 1 {
		t.Fatalf("a private fill reached the set: %d tables", st.Tables)
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

// TestTableSetEvictsLeastRecentlyUsed fills the set to its byte cap
// with long tables and borrows one of them, then renders signals of
// the service's default capture shape: each render must be
// bit-identical to Render, the new tables must be published (the cap
// evicts the least recently used long table instead of refusing
// them), the borrowed table must keep its bits after its eviction,
// and a table longer than the cap must render privately without
// touching the set.
func TestTableSetEvictsLeastRecentlyUsed(t *testing.T) {
	const fs = 64e6
	set := freshTables(t)
	long := TableSetBytes / 8 / 4 // four tables fill the set exactly
	freq := func(i int) float64 { return 1e6 * float64(i+1) }
	held := make([]CosTable, 4)
	for i := range held {
		held[i].Cosines(ToneExpr, freq(i), 0, fs, long)
	}
	if st := SharedTables(); st.Bytes != TableSetBytes || st.Tables != 4 {
		t.Fatalf("set holds %d tables, %d bytes; want 4 tables, %d bytes", st.Tables, st.Bytes, TableSetBytes)
	}
	borrowed := held[1].vals
	keep := append([]float64(nil), borrowed...)
	// A hit on table 0 makes table 1 the least recently used.
	if got := new(CosTable).Cosines(ToneExpr, freq(0), 0, fs, long); &got[0] != &held[0].vals[0] {
		t.Fatal("a hit on a published table did not alias it")
	}
	var c Carriers
	for _, r := range []Signal{
		NewTwoTone(9.7e6, 9.8e6, 0.05).AddSpur(15.5e6, 0.001),
		NewTone(9.8e6, 0.004),
	} {
		const n = 18432
		got := make([]float64, n)
		r.RenderInto(got, fs, nil, &c)
		if !sameBits(got, r.Render(n, fs, nil)) {
			t.Fatalf("%v: render on a full set differs from Render", r)
		}
	}
	st := SharedTables()
	if st.Published != 4+3 || st.Evicted != 1 || st.Tables != 3+3 {
		t.Fatalf("after the default-shape renders: %+v, want 7 published, 1 evicted, 6 held", st)
	}
	if st.Bytes > TableSetBytes {
		t.Fatalf("set holds %d bytes, over its cap %d", st.Bytes, TableSetBytes)
	}
	for i := range held {
		k := tableKey{expr: ToneExpr, a: math.Float64bits(freq(i)), fs: math.Float64bits(fs), n: long}
		if _, in := set.tabs[k]; in != (i != 1) {
			t.Fatalf("long table %d held = %v after one eviction; want only table 1 evicted", i, in)
		}
	}
	if !sameBits(borrowed, keep) || !sameBits(held[1].Cosines(ToneExpr, freq(1), 0, fs, long), keep) {
		t.Fatal("an evicted table that a CosTable still borrows lost its bits")
	}
	over := TableSetBytes/8 + 1
	s := NewTone(3e6, 0.5)
	got := make([]float64, over)
	s.RenderInto(got, fs, nil, &c)
	if !sameBits(got, s.Render(over, fs, nil)) {
		t.Fatal("a table longer than the cap renders differently from Render")
	}
	if after := SharedTables(); after != st {
		t.Fatalf("a table longer than the cap changed the set: %+v, was %+v", after, st)
	}
}
