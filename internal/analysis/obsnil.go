package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// newObsnil builds the obsnil analyzer. Metric name literals are a
// global namespace: one name must map to one metric kind (counter xor
// gauge xor histogram), one histogram geometry, and one owning package
// — otherwise merges, dashboards and the Prometheus exposition
// silently alias different series. (That disabled observability is
// free — every exported obs method a no-op on a nil receiver — is
// TestNilReceiversAreNoOps in internal/obs, which calls each method on
// nil whatever the call site.)
func newObsnil() *Analyzer {
	type site struct {
		pkg  string
		kind string
		geom string
		pos  token.Pos
	}
	metricSites := map[string][]site{}
	a := &Analyzer{
		Name: "obsnil",
		Doc:  "metric names must be globally consistent: one kind, one histogram geometry, one owning package",
	}
	a.Run = func(prog *Program, pkg *Package, report Reporter) {
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := info.Uses[sel.Sel].(*types.Func)
				if !ok || !declaredIn(fn, "obs") {
					return true
				}
				if name, geom, ok := metricRegistration(call, fn); ok {
					metricSites[name] = append(metricSites[name], site{pkg: pkg.Path, kind: fn.Name(), geom: geom, pos: call.Pos()})
				}
				return true
			})
		}
	}
	a.Finish = func(prog *Program, report Reporter) {
		names := make([]string, 0, len(metricSites))
		for name := range metricSites {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			sites := metricSites[name]
			kinds := map[string]bool{}
			geoms := map[string]bool{}
			pkgs := map[string]bool{}
			for _, s := range sites {
				kinds[s.kind] = true
				pkgs[s.pkg] = true
				if s.kind == "Histogram" {
					geoms[s.geom] = true
				}
			}
			switch {
			case len(kinds) > 1:
				for _, s := range sites {
					report(s.pos, "metric name %q is used as more than one kind (%s); one name must map to one metric", name, joinKeys(kinds))
				}
			case len(geoms) > 1:
				for _, s := range sites {
					report(s.pos, "histogram %q is registered with conflicting geometries (%s); mergeability requires one geometry per name", name, joinKeys(geoms))
				}
			case len(pkgs) > 1:
				for _, s := range sites {
					report(s.pos, "metric name %q is registered from multiple packages (%s); each series needs one owner", name, joinKeys(pkgs))
				}
			}
		}
	}
	return a
}

// metricRegistration matches a Counter/Gauge/Histogram registration
// on an obs registry with a literal name, for the Finish-phase
// namespace checks; geom is a histogram's geometry arguments.
func metricRegistration(call *ast.CallExpr, fn *types.Func) (name, geom string, ok bool) {
	switch fn.Name() {
	case "Counter", "Gauge", "Histogram":
	default:
		return "", "", false
	}
	// Only registry-level registrations, not handle methods.
	if !strings.HasSuffix(recvTypeNameOf(fn), "Registry") {
		return "", "", false
	}
	if name, ok = stringLit(call); !ok {
		return "", "", false
	}
	if fn.Name() == "Histogram" && len(call.Args) > 1 {
		parts := make([]string, 0, len(call.Args)-1)
		for _, arg := range call.Args[1:] {
			parts = append(parts, types.ExprString(arg))
		}
		geom = strings.Join(parts, ",")
	}
	return name, geom, true
}

// recvTypeNameOf names the receiver's type of method fn, through a
// pointer ("Registry" for (*Registry).Counter), or "" for a function.
func recvTypeNameOf(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// stringLit extracts a first-argument string literal from a call.
func stringLit(call *ast.CallExpr) (string, bool) {
	if len(call.Args) < 1 {
		return "", false
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

func joinKeys(m map[string]bool) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}
