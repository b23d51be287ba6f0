package analysis

import (
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
		vetBenchPackages(b, root, benchDirs...)
	}
}

// BenchmarkMstxvetWarm is the same run with the process-wide stdlib
// already checked: the catalog's own cost plus loading the module
// packages, which is what every Load after the first in a process pays.
func BenchmarkMstxvetWarm(b *testing.B) {
	vetWarm(b, benchDirs...)
}

// BenchmarkMstxvetEngines is the warm run over code the engine-scoped
// rules guard: an engine package (internal/campaign) and the server
// that links every engine. The two packages BenchmarkMstxvet and
// BenchmarkMstxvetWarm vet are neither, so there nakedgo, determinism
// and the ctxflow thread rule return at once and loading dominates.
func BenchmarkMstxvetEngines(b *testing.B) {
	vetWarm(b, "internal/campaign", "internal/server")
}

// benchDirs are the packages BenchmarkMstxvet and BenchmarkMstxvetWarm
// vet; their BENCH_mstxvet.json trajectory is recorded on these two.
var benchDirs = []string{"internal/resilient", "internal/obs"}

// vetWarm times vetting dirs with the process-wide stdlib checked by
// an untimed first run.
func vetWarm(b *testing.B, dirs ...string) {
	root := repoRoot(b)
	freshStdlib()
	vetBenchPackages(b, root, dirs...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vetBenchPackages(b, root, dirs...)
	}
}

// freshStdlib swaps in an empty stdlib FileSet and importer, so the
// next Load type-checks the stdlib from source again.
func freshStdlib() {
	stdMu.Lock()
	defer stdMu.Unlock()
	stdFset = token.NewFileSet()
	stdImp = newStdImporter(stdFset)
}

func vetBenchPackages(b *testing.B, root string, dirs ...string) {
	b.Helper()
	// Workers pinned to 1: the recorded trajectory gates allocs/op
	// tightly (1% slack for go/types interning jitter), and
	// scheduling-dependent slice growth would blow past that.
	diags, err := Vet(Config{
		Root:    root,
		Dirs:    dirs,
		Workers: 1,
	}, Catalog())
	if err != nil {
		b.Fatal(err)
	}
	if len(diags) != 0 {
		b.Fatalf("unexpected findings: %v", diags)
	}
}
