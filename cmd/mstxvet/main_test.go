package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestListFlag: -list prints the whole catalog, one analyzer a line,
// and exits 0.
func TestListFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := "nakedgo ctxflow determinism failpointreg obsnil"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("-list catalog = %s, want %s:\n%s", got, want, out.String())
	}
}

// TestFindingsExitNonzero: a module with an engine-tagged bare go
// statement makes the driver print the finding and exit 1.
func TestFindingsExitNonzero(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module tmpmod\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "eng", "eng.go"), `// Package eng is a scratch engine package.
//
//mstxvet:engine
package eng

import "sync"

// Spawn uses a bare go statement.
func Spawn(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
}
`)
	var out, errOut strings.Builder
	code := run([]string{"-root", dir, "./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout %q stderr %q", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "[nakedgo]") || !strings.Contains(out.String(), "bare go statement") {
		t.Errorf("missing nakedgo finding in output:\n%s", out.String())
	}
}

// TestCleanPackagesExitZero runs the driver over real foundational
// packages of this repo, which must be clean.
func TestCleanPackagesExitZero(t *testing.T) {
	root := repoRoot(t)
	var out, errOut strings.Builder
	code := run([]string{"-root", root, "internal/resilient", "internal/obs"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stdout %q stderr %q", code, out.String(), errOut.String())
	}
}

// TestJSONOutput: -json renders the findings as a machine-readable
// array; a clean run is exactly the empty array.
func TestJSONOutput(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module tmpmod\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "eng", "eng.go"), `// Package eng is a scratch engine package.
//
//mstxvet:engine
package eng

import "sync"

// Spawn uses a bare go statement.
func Spawn(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
}
`)
	var out, errOut strings.Builder
	code := run([]string{"-root", dir, "-json", "./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr %q", code, errOut.String())
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out.String()), &findings); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(findings) == 0 {
		t.Fatal("expected findings in JSON output")
	}
	for _, f := range findings {
		if f.File == "" || f.Line == 0 || f.Col == 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
	}

	out.Reset()
	errOut.Reset()
	root := repoRoot(t)
	if code := run([]string{"-root", root, "-json", "internal/resilient"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d on clean package; stderr %q", code, errOut.String())
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Errorf("clean -json run = %q, want []", out.String())
	}
}

// TestWorkersDeterminism: the findings and their order are identical
// for any worker count, byte for byte.
func TestWorkersDeterminism(t *testing.T) {
	root := repoRoot(t)
	args := []string{"-root", root, "internal/server", "internal/campaign", "internal/mcengine"}
	outputs := make([]string, 0, 3)
	for _, w := range []string{"1", "4", "8"} {
		var out, errOut strings.Builder
		run(append([]string{"-workers", w}, args...), &out, &errOut)
		if errOut.Len() > 0 {
			t.Fatalf("-workers %s: stderr %q", w, errOut.String())
		}
		outputs = append(outputs, out.String())
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Errorf("output differs between worker counts:\n-- workers 1 --\n%s\n-- variant %d --\n%s",
				outputs[0], i, outputs[i])
		}
	}
}

// TestBadFlagExitTwo: usage errors are distinct from findings.
func TestBadFlagExitTwo(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func repoRoot(t *testing.T) string {
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
