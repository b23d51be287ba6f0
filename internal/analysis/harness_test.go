package analysis

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// The fixture harness: every analyzer owns a fixture tree under
// testdata/src/<name>/ whose files carry `// want `+"`regexp`"+`
// markers on the lines the analyzer must flag. The harness runs the
// analyzer (alone) over all fixture packages, then requires a
// one-to-one match between markers and surviving diagnostics — an
// unexpected finding fails as loudly as a missing one, and a
// suppressed finding must not appear at all.

// wantRe matches `// want `regexp“ markers in fixture sources.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

type wantMark struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func TestAnalyzerFixtures(t *testing.T) {
	root := repoRoot(t)
	for _, a := range Catalog() {
		name := a.Name
		t.Run(name, func(t *testing.T) {
			fixRoot := filepath.Join(root, "internal", "analysis", "testdata", "src", name)
			dirs := fixturePackages(t, fixRoot)
			diags, err := Vet(Config{
				Root:        root,
				FixtureRoot: fixRoot,
				Dirs:        dirs,
			}, []*Analyzer{catalogByName(t, name)})
			if err != nil {
				t.Fatalf("Vet: %v", err)
			}
			wants := collectWants(t, fixRoot, dirs)
			matchWants(t, diags, wants)
		})
	}
}

// catalogByName hands out a fresh instance of the named analyzer; the
// harness never reuses an instance across Vet runs.
func catalogByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range Catalog() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer %q in the catalog", name)
	return nil
}

// TestCatalogFixtureCoverage pins registry completeness: every catalog
// analyzer must own a fixture tree under testdata/src/<name>/ with at
// least one package, so an analyzer cannot join the catalog without
// want-marker coverage.
func TestCatalogFixtureCoverage(t *testing.T) {
	root := repoRoot(t)
	for _, a := range Catalog() {
		fixRoot := filepath.Join(root, "internal", "analysis", "testdata", "src", a.Name)
		ents, err := os.ReadDir(fixRoot)
		if err != nil {
			t.Errorf("analyzer %s has no fixture tree: %v", a.Name, err)
			continue
		}
		pkgs := 0
		for _, e := range ents {
			if e.IsDir() {
				pkgs++
			}
		}
		if pkgs == 0 {
			t.Errorf("analyzer %s fixture tree %s has no packages", a.Name, fixRoot)
		}
	}
}

// fixturePackages lists the package directories directly under the
// fixture root.
func fixturePackages(t *testing.T, fixRoot string) []string {
	t.Helper()
	ents, err := os.ReadDir(fixRoot)
	if err != nil {
		t.Fatalf("fixture root: %v", err)
	}
	var dirs []string
	for _, e := range ents {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	sort.Strings(dirs)
	if len(dirs) == 0 {
		t.Fatalf("no fixture packages under %s", fixRoot)
	}
	return dirs
}

// collectWants scans the fixture sources for want markers.
func collectWants(t *testing.T, fixRoot string, dirs []string) []*wantMark {
	t.Helper()
	var wants []*wantMark
	for _, dir := range dirs {
		paths, err := filepath.Glob(filepath.Join(fixRoot, dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			for line := 1; sc.Scan(); line++ {
				m := wantRe.FindStringSubmatch(sc.Text())
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp: %v", path, line, err)
				}
				wants = append(wants, &wantMark{file: path, line: line, re: re})
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
	}
	return wants
}

// matchWants pairs diagnostics with markers one-to-one.
func matchWants(t *testing.T, diags []Diagnostic, wants []*wantMark) {
	t.Helper()
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && sameFile(w.file, d.Pos.Filename) && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func sameFile(a, b string) bool {
	aa, errA := filepath.Abs(a)
	bb, errB := filepath.Abs(b)
	if errA != nil || errB != nil {
		return a == b
	}
	return aa == bb
}

// repoRoot walks up from the test's working directory to the module
// root.
func repoRoot(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// fixtureDir is a shorthand used by the framework tests.
func fixtureDir(t *testing.T, parts ...string) string {
	t.Helper()
	return filepath.Join(append([]string{repoRoot(t), "internal", "analysis", "testdata"}, parts...)...)
}
