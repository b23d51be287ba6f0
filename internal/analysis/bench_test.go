package analysis

import (
	"go/importer"
	"go/token"
	"testing"
)

// BenchmarkMstxvet is the vet-runtime budget of one cold mstxvet run:
// the full catalog over two real packages, with the stdlib type-checked
// from source again on every iteration, as the one-shot CLI does.
// scripts/check.sh runs the catalog on every merge, so its cost is
// recorded and gated alongside the engine benchmarks
// (BENCH_mstxvet.json).
func BenchmarkMstxvet(b *testing.B) {
	root := repoRoot(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		freshStdlib()
		vetBenchPackages(b, root)
	}
}

// BenchmarkMstxvetWarm is the same run with the process-wide stdlib
// already checked: the catalog's own cost plus loading the module
// packages, which is what every Load after the first in a process pays.
func BenchmarkMstxvetWarm(b *testing.B) {
	root := repoRoot(b)
	freshStdlib()
	vetBenchPackages(b, root)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vetBenchPackages(b, root)
	}
}

// freshStdlib swaps in an empty stdlib FileSet and importer, so the
// next Load type-checks the stdlib from source again.
func freshStdlib() {
	stdMu.Lock()
	defer stdMu.Unlock()
	stdFset = token.NewFileSet()
	stdImp = importer.ForCompiler(stdFset, "source", nil)
}

func vetBenchPackages(b *testing.B, root string) {
	b.Helper()
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
