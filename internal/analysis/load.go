package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded (parsed and type-checked) package. A package
// with ParseErrs or TypeErrs is "broken": its errors surface as
// diagnostics and the analyzers skip it rather than reasoning about a
// partial AST.
type Package struct {
	// Path is the import path ("mstx/internal/campaign", or a
	// fixture-relative path like "a" under a fixture root).
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Files holds the parsed non-test files, in file-name order.
	Files []*ast.File
	// Types is the type-checked package (nil when parsing found
	// nothing usable).
	Types *types.Package
	// Info is the populated type info for Files.
	Info *types.Info
	// ParseErrs and TypeErrs are the reasons the package is broken.
	ParseErrs []error
	TypeErrs  []error
}

// Broken reports whether the package failed to parse or type-check.
func (p *Package) Broken() bool { return len(p.ParseErrs) > 0 || len(p.TypeErrs) > 0 }

// Program is one loaded program: the target packages plus every
// module-internal or fixture dependency they pulled in.
type Program struct {
	// Fset is the process-wide FileSet shared with the stdlib importer,
	// so positions of stdlib objects resolve too.
	Fset *token.FileSet
	// Root is the module root (the directory holding go.mod).
	Root string
	// Module is the module path declared in go.mod.
	Module string
	// FixtureRoot, when set, resolves bare import paths (and target
	// dirs) under a testdata tree instead of the module.
	FixtureRoot string
	// WholeProgram marks a load that covers every package of the tree,
	// enabling cross-package completeness checks (e.g. "site registered
	// but never fired") that would false-positive on a partial load.
	WholeProgram bool
	// Targets are the packages the analyzers visit, in path order.
	Targets []*Package

	pkgs    map[string]*Package
	loading map[string]bool
	std     types.Importer
}

// The stdlib is type-checked from source once per process: every Load
// shares one FileSet and one source importer, whose own cache keeps
// each checked package. A checked package is immutable, and a process
// has one GOROOT and one set of build tags, so the cache needs no key.
// stdMu serializes the importer, which is not safe for concurrent use
// (the FileSet is).
var (
	stdMu   sync.Mutex
	stdFset = token.NewFileSet()
	stdImp  = importer.ForCompiler(stdFset, "source", nil)
)

// LookupByName returns every loaded package whose package name matches
// (e.g. "obs" finds both the real obs package and a fixture stub).
func (p *Program) LookupByName(name string) []*Package {
	var out []*Package
	paths := make([]string, 0, len(p.pkgs))
	for path := range p.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if pkg := p.pkgs[path]; pkg.Types != nil && pkg.Types.Name() == name {
			out = append(out, pkg)
		}
	}
	return out
}

// Config tells Load what to bring in.
type Config struct {
	// Root is the module root; it must contain go.mod.
	Root string
	// FixtureRoot optionally resolves bare import paths under a
	// fixture tree (the analyzer testdata layout).
	FixtureRoot string
	// Dirs are the target package directories, relative to Root (or to
	// FixtureRoot when set) or absolute.
	Dirs []string
	// WholeProgram enables cross-package completeness checks.
	WholeProgram bool
	// Workers bounds the Vet worker pool for Parallel analyzers;
	// 0 means GOMAXPROCS-many. Findings are identical for any value.
	Workers int
}

// Load parses and type-checks the target packages and everything they
// import from the module (or fixture tree); stdlib imports go through
// the process-wide source importer. Broken packages are returned, not
// fatal — only infrastructure failures (unreadable root, no go.mod)
// are errors.
func Load(cfg Config) (*Program, error) {
	root, err := filepath.Abs(cfg.Root)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	stdMu.Lock()
	fset, std := stdFset, stdImp
	stdMu.Unlock()
	prog := &Program{
		Fset:         fset,
		Root:         root,
		Module:       module,
		FixtureRoot:  cfg.FixtureRoot,
		WholeProgram: cfg.WholeProgram,
		pkgs:         map[string]*Package{},
		loading:      map[string]bool{},
		std:          std,
	}
	if prog.FixtureRoot != "" {
		if prog.FixtureRoot, err = filepath.Abs(prog.FixtureRoot); err != nil {
			return nil, err
		}
	}
	base := root
	if prog.FixtureRoot != "" {
		base = prog.FixtureRoot
	}
	for _, dir := range cfg.Dirs {
		abs := dir
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(base, dir)
		}
		path, err := prog.importPathFor(abs)
		if err != nil {
			return nil, err
		}
		pkg, err := prog.load(path, abs)
		if err != nil {
			return nil, err
		}
		prog.Targets = append(prog.Targets, pkg)
	}
	sort.Slice(prog.Targets, func(i, j int) bool { return prog.Targets[i].Path < prog.Targets[j].Path })
	return prog, nil
}

// ExpandDirs resolves "./..."-style patterns into the list of package
// directories under base (skipping testdata, vendor, dot/underscore
// directories and, as go list does, nested modules: any directory
// below the start with its own go.mod), plus plain directory arguments
// verbatim.
func ExpandDirs(base string, patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if pat != "./..." && !strings.HasSuffix(pat, "/...") {
			add(filepath.Clean(pat))
			continue
		}
		start := filepath.Join(base, filepath.Clean(strings.TrimSuffix(pat, "...")))
		err := filepath.WalkDir(start, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != start && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				hasGoMod(p)) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				rel, err := filepath.Rel(base, p)
				if err != nil {
					return err
				}
				add(rel)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoMod(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && eligibleGoFile(e.Name()) {
			return true
		}
	}
	return false
}

func eligibleGoFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// modulePath reads the module declaration out of root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("analysis: %s is not a module root: %w", root, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module declaration in %s/go.mod", root)
}

// importPathFor maps an absolute package directory to its import path:
// module-relative for dirs under Root, fixture-relative for dirs under
// FixtureRoot.
func (p *Program) importPathFor(dir string) (string, error) {
	if p.FixtureRoot != "" {
		if rel, err := filepath.Rel(p.FixtureRoot, dir); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel), nil
		}
	}
	rel, err := filepath.Rel(p.Root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside the module root %s", dir, p.Root)
	}
	if rel == "." {
		return p.Module, nil
	}
	return p.Module + "/" + filepath.ToSlash(rel), nil
}

// dirFor maps an import path back to a directory, or "" when the path
// is not module- or fixture-local (i.e. stdlib).
func (p *Program) dirFor(path string) string {
	if path == p.Module {
		return p.Root
	}
	if rest, ok := strings.CutPrefix(path, p.Module+"/"); ok {
		return filepath.Join(p.Root, filepath.FromSlash(rest))
	}
	if p.FixtureRoot != "" {
		dir := filepath.Join(p.FixtureRoot, filepath.FromSlash(path))
		if hasGoFiles(dir) {
			return dir
		}
	}
	return ""
}

// Import implements types.Importer over the program: local packages
// load recursively, everything else defers to the stdlib source
// importer. A broken local dependency poisons its importer with an
// error rather than crashing the type checker.
func (p *Program) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir := p.dirFor(path); dir != "" {
		pkg, err := p.load(path, dir)
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("analysis: dependency %s failed to load", path)
		}
		return pkg.Types, nil
	}
	stdMu.Lock()
	defer stdMu.Unlock()
	return p.std.Import(path)
}

// load parses and type-checks one directory, memoized by import path.
func (p *Program) load(path, dir string) (*Package, error) {
	if pkg, ok := p.pkgs[path]; ok {
		return pkg, nil
	}
	if p.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	p.loading[path] = true
	defer delete(p.loading, path)

	pkg := &Package{Path: path, Dir: dir}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && eligibleGoFile(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	for _, name := range names {
		f, err := parser.ParseFile(p.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			pkg.ParseErrs = append(pkg.ParseErrs, err)
			continue
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) > 0 {
		pkg.Info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{
			Importer: p,
			Error:    func(err error) { pkg.TypeErrs = append(pkg.TypeErrs, err) },
		}
		// Check returns an error alongside the collected TypeErrs; the
		// package object is still usable for position reporting.
		tpkg, _ := conf.Check(path, p.Fset, pkg.Files, pkg.Info)
		pkg.Types = tpkg
	}
	p.pkgs[path] = pkg
	return pkg, nil
}
