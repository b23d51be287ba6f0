// Package analysis is the project-invariant static-analysis suite of
// the mstx repo: a small stdlib-only analyzer framework (go/parser +
// go/ast + go/types with the source importer — no x/tools dependency)
// plus a catalog of analyzers that turn the engine-layer contracts of
// PRs 1–4 into machine-checked invariants:
//
//   - nakedgo: engine packages must spawn goroutines through
//     resilient.Go/Call so panics stay quarantined (DESIGN.md §9).
//   - ctxflow: a function that receives a context must thread it, not
//     root a fresh context.Background/TODO mid-path, and exported
//     engine entry points must hand their ctx to the goroutines they
//     spawn.
//   - determinism: no wall-clock reads, global math/rand draws, or
//     map-iteration-ordered slice writes inside the engine packages
//     whose state feeds the bit-identical checkpoint/resume contract.
//   - obsnil: metric name literals are globally consistent (one kind,
//     one geometry, one owning package).
//
// An invariant the compiler or a test can hold is left to them: the
// server's job state and error class are defined types rather than
// strings policed here, a server test checks that every job kind
// writes engine checkpoints, goroutine joins are pinned by tests (the
// server's shutdown join by TestShutdownJoinsWorkers; mcengine's pool
// by every engine test, since its workers merge the results), and
// deadlocks are left to -race, the chaos suites and the soak.
// Failpoints are the resilient.Failpoint type, which only
// resilient.Site makes and which panics on a name registered twice;
// the chaos soak (internal/server TestChaosSoak) arms every site
// resilient.Sites lists and fails on one never hit. That disabled
// observability is free is internal/obs TestNilReceiversAreNoOps,
// which calls every exported obs method on a nil receiver.
//
// The cmd/mstxvet driver runs the catalog over ./... with vet-style
// file:line diagnostics; scripts/check.sh gates merges on a clean run.
// A finding that is intentional is suppressed in place with
//
//	//mstxvet:ignore <analyzer> <reason>
//
// on the flagged line or the line above; the reason is mandatory.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Reporter receives one diagnostic at a source position.
type Reporter func(pos token.Pos, format string, args ...any)

// Analyzer is one project invariant. Run is called once per target
// package; Finish (optional) is called after every package has been
// visited and is where whole-program invariants report. Analyzers are
// stateful across Run calls, so a fresh catalog must be built per Vet
// (Catalog does that).
type Analyzer struct {
	// Name is the analyzer's catalog name, used in -list output and in
	// //mstxvet:ignore directives.
	Name string
	// Doc is a one-line description of the enforced contract.
	Doc string
	// Run inspects one target package.
	Run func(prog *Program, pkg *Package, report Reporter)
	// Finish reports whole-program findings; may be nil.
	Finish func(prog *Program, report Reporter)
	// Parallel marks Run as safe to invoke concurrently for different
	// packages (no cross-package mutable state). Analyzers that
	// accumulate state across Run calls leave it false and run their
	// packages sequentially.
	Parallel bool
}

// Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the vet-style file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Catalog builds a fresh instance of every analyzer. Instances carry
// cross-package state between Run and Finish, so each Vet needs its
// own catalog.
func Catalog() []*Analyzer {
	return []*Analyzer{
		newNakedgo(),
		newCtxflow(),
		newDeterminism(),
		newObsnil(),
	}
}

// enginePackages are the packages bound by the engine-layer contracts
// (panic quarantine, deterministic replay): the stuck-at campaign, the
// MC engine, the fault model, the tolerance/translate math that
// feeds checkpointed ledgers, and the SOC test scheduler whose
// schedules are golden-pinned bit for bit.
var enginePackages = map[string]bool{
	"campaign":  true,
	"mcengine":  true,
	"fault":     true,
	"tolerance": true,
	"translate": true,
	"soc":       true,
}

// engineDirective tags a package as engine-scoped regardless of its
// import path; the analyzer testdata fixtures use it.
const engineDirective = "//mstxvet:engine"

// isEnginePkg reports whether pkg is subject to the engine-only
// analyzers (nakedgo, determinism, the ctxflow thread rule): its path
// ends in a known engine package name, or any file carries the
// //mstxvet:engine directive.
func isEnginePkg(pkg *Package) bool {
	if enginePackages[pathBase(pkg.Path)] {
		return true
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(c.Text) == engineDirective {
					return true
				}
			}
		}
	}
	return false
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

// declaredIn reports whether the object lives in a package whose name
// is pkgName. Matching by package name rather than import path lets
// the testdata fixtures stand in local stubs for obs and resilient.
func declaredIn(obj types.Object, pkgName string) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

// calleeFunc resolves a call expression to the package-level function
// it invokes (through a plain identifier or a selector), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" &&
		obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// condMentionsNil scans a boolean condition tree for a comparison of
// obj against nil with the given operator (token.EQL or token.NEQ),
// descending through &&/||/! and parens.
func condMentionsNil(info *types.Info, cond ast.Expr, obj types.Object, op token.Token) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if e.Op == token.LAND || e.Op == token.LOR {
			return condMentionsNil(info, e.X, obj, op) || condMentionsNil(info, e.Y, obj, op)
		}
		if e.Op != op {
			return false
		}
		for _, pair := range [2][2]ast.Expr{{e.X, e.Y}, {e.Y, e.X}} {
			if id, ok := ast.Unparen(pair[0]).(*ast.Ident); ok &&
				info.ObjectOf(id) == obj && isNilIdent(info, pair[1]) {
				return true
			}
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			return condMentionsNil(info, e.X, obj, op)
		}
	}
	return false
}

// inspectWithStack walks root calling fn with each node and the stack
// of its ancestors (outermost first, not including the node itself).
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		stack = append(stack, n)
		if !descend {
			// Still must balance the pop: Inspect won't call us with
			// nil for a subtree we refused, so pop immediately.
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}
