package analysis

import "testing"

// BenchmarkMstxvet is the vet-runtime budget: the full catalog — with
// the CFG, call-graph and dataflow layer behind lockorder and
// leakjoin — over two real packages. scripts/check.sh runs the
// catalog on every merge, so its cost is recorded and gated alongside
// the engine benchmarks (BENCH_mstxvet.json).
func BenchmarkMstxvet(b *testing.B) {
	root := repoRoot(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Workers pinned to 1: the recorded trajectory gates allocs/op
		// tightly (1% slack for go/types interning jitter), and
		// scheduling-dependent slice growth would blow past that.
		diags, err := Vet(Config{
			Root:    root,
			Dirs:    []string{"internal/resilient", "internal/obs"},
			Workers: 1,
		}, Catalog())
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("unexpected findings: %v", diags)
		}
	}
}
