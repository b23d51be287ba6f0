package analysis

import (
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestBrokenPackageParseError: a fixture that does not parse must
// degrade to a positioned mstxvet diagnostic, never a crash, and must
// not reach the analyzers.
func TestBrokenPackageParseError(t *testing.T) {
	diags, err := Vet(Config{
		Root:        repoRoot(t),
		FixtureRoot: fixtureDir(t, "broken"),
		Dirs:        []string{"parseerr"},
	}, Catalog())
	if err != nil {
		t.Fatalf("Vet must not fail on a parse-broken package: %v", err)
	}
	if len(diags) == 0 {
		t.Fatal("expected a parse-error diagnostic, got none")
	}
	for _, d := range diags {
		if d.Analyzer != "mstxvet" || !strings.Contains(d.Message, "parse error") {
			t.Errorf("unexpected diagnostic on parse-broken package: %s", d)
		}
		if d.Pos.Filename == "" || d.Pos.Line == 0 {
			t.Errorf("parse-error diagnostic is unpositioned: %s", d)
		}
	}
}

// TestBrokenPackageTypeError: same contract for a package that parses
// but fails the type checker.
func TestBrokenPackageTypeError(t *testing.T) {
	diags, err := Vet(Config{
		Root:        repoRoot(t),
		FixtureRoot: fixtureDir(t, "broken"),
		Dirs:        []string{"typeerr"},
	}, Catalog())
	if err != nil {
		t.Fatalf("Vet must not fail on a type-broken package: %v", err)
	}
	found := false
	for _, d := range diags {
		if d.Analyzer == "mstxvet" && strings.Contains(d.Message, "type error") &&
			strings.Contains(d.Message, "undefinedName") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a type-error diagnostic naming undefinedName, got %v", diags)
	}
}

// TestMalformedIgnoreDirective: an ignore without a reason is itself a
// finding — suppressions stay auditable.
func TestMalformedIgnoreDirective(t *testing.T) {
	diags, err := Vet(Config{
		Root:        repoRoot(t),
		FixtureRoot: fixtureDir(t, "broken"),
		Dirs:        []string{"ignorebad"},
	}, Catalog())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if d.Analyzer == "mstxvet" && strings.Contains(d.Message, "malformed ignore directive") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a malformed-ignore diagnostic, got %v", diags)
	}
}

// TestExpandDirsSkipsNestedModules: like go list, a ./... walk stops
// at any directory below its start that has its own go.mod, so a nested
// module's packages are not vetted as part of the enclosing one. A
// pattern that starts inside the nested module still walks it.
func TestExpandDirsSkipsNestedModules(t *testing.T) {
	base := t.TempDir()
	for _, f := range []string{"go.mod", "a/a.go", "a/b/b.go", "a/testdata/x.go",
		"nested/go.mod", "nested/n.go", "nested/sub/s.go"} {
		p := filepath.Join(base, filepath.FromSlash(f))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		content := "package p\n"
		if filepath.Base(p) == "go.mod" {
			content = "module m\n"
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for pat, want := range map[string][]string{
		"./...":        {"a", filepath.Join("a", "b")},
		"./nested/...": {"nested", filepath.Join("nested", "sub")},
	} {
		got, err := ExpandDirs(base, []string{pat})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ExpandDirs(%s) = %v, want %v", pat, got, want)
		}
	}
}

// TestFailpointSites: the static site extraction the chaos suite
// builds its completeness assertion from must see every engine site.
func TestFailpointSites(t *testing.T) {
	sites, err := FailpointSites(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"campaign.detect_batch",
		"campaign.sim_batch",
		"mcengine.lane",
		"resilient.checkpoint.save",
	}
	have := map[string]bool{}
	for _, s := range sites {
		have[s] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("FailpointSites missing %q (got %v)", w, sites)
		}
	}
	for i := 1; i < len(sites); i++ {
		if sites[i-1] >= sites[i] {
			t.Fatalf("FailpointSites not sorted/deduped: %v", sites)
		}
	}
}

// TestVetRealPackagesClean runs the full catalog over two real,
// foundational packages as a partial load; the whole-repo self-clean
// run is gated by scripts/check.sh.
func TestVetRealPackagesClean(t *testing.T) {
	diags, err := Vet(Config{
		Root: repoRoot(t),
		Dirs: []string{"internal/resilient", "internal/obs"},
	}, Catalog())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic in real packages: %s", d)
	}
}

// TestCatalogFresh: Catalog must hand out fresh analyzer instances so
// per-Vet state never leaks between runs.
func TestCatalogFresh(t *testing.T) {
	a, b := Catalog(), Catalog()
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("catalog size = %d, %d; want 5", len(a), len(b))
	}
	for i := range a {
		if a[i] == b[i] {
			t.Errorf("analyzer %s shared between catalogs", a[i].Name)
		}
		if a[i].Name == "" || a[i].Doc == "" {
			t.Errorf("analyzer %d missing name or doc", i)
		}
	}
}

// TestStdlibSharedAcrossLoads: every Load in a process shares one
// FileSet and one stdlib importer, so two Loads, run at once, get the
// very same type-checked "sync", and a fixture finding still prints
// the right file:line after earlier Loads have grown the shared
// FileSet.
func TestStdlibSharedAcrossLoads(t *testing.T) {
	root := repoRoot(t)
	fixRoot := fixtureDir(t, "src", "nakedgo")
	dirs := fixturePackages(t, fixRoot)
	cfg := Config{Root: root, FixtureRoot: fixRoot, Dirs: dirs, WholeProgram: true}
	var first, second *Program
	var firstErr, secondErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		first, firstErr = Load(Config{Root: root, Dirs: []string{"internal/resilient"}})
	}()
	go func() {
		defer wg.Done()
		second, secondErr = Load(cfg)
	}()
	wg.Wait()
	if firstErr != nil || secondErr != nil {
		t.Fatal(firstErr, secondErr)
	}
	if first.Fset != second.Fset {
		t.Error("two Loads built separate FileSets")
	}
	a, b := importOf(first.Targets[0], "sync"), importOf(second.Targets[0], "sync")
	if a == nil || a != b {
		t.Errorf("sync package differs between Loads: %p vs %p", a, b)
	}

	diags, err := Vet(cfg, []*Analyzer{catalogByName(t, "nakedgo")})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("nakedgo fixture produced no findings")
	}
	matchWants(t, diags, collectWants(t, fixRoot, dirs))
}

// importOf returns the package pkg imports under path, or nil.
func importOf(pkg *Package, path string) *types.Package {
	for _, imp := range pkg.Types.Imports() {
		if imp.Path() == path {
			return imp
		}
	}
	return nil
}
