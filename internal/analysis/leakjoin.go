package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// leakjoin: every goroutine spawned in an engine package or the job
// server — via resilient.Go or a bare go statement — must reach a join
// point on all CFG paths, so a shutdown can prove quiescence instead of
// the soak tests discovering leaks probabilistically. Accepted joins:
//
//   - a WaitGroup.Wait on the spawn's group, on every path from the
//     spawn to return (deferred Wait counts), in the spawning function;
//   - for a WaitGroup struct field: a Wait anywhere in the package
//     (start/stop split across methods);
//   - for a local WaitGroup: the group escaping by address into a
//     callee;
//   - a goroutine body bounded by a ctx-cancel select (a case receiving
//     from ctx.Done());
//   - a result-channel drain: the body sends on a channel the spawner
//     receives from on every path.
func newLeakjoin() *Analyzer {
	lj := &leakjoin{}
	return &Analyzer{
		Name:     "leakjoin",
		Doc:      "every spawned goroutine reaches a join (WaitGroup.Wait, channel drain, or ctx-cancel select) on all CFG paths",
		Run:      lj.run,
		Parallel: true,
	}
}

type leakjoin struct{}

// spawnSite is one goroutine spawn.
type spawnSite struct {
	leaf   ast.Node // CFG leaf containing the spawn
	unit   ast.Node // enclosing FuncDecl/FuncLit
	pos    token.Pos
	wg     types.Object // the associated WaitGroup, or nil
	task   *ast.FuncLit // the spawned closure, when visible
	reason string       // failure detail when not joined
}

func (lj *leakjoin) run(prog *Program, pkg *Package, report Reporter) {
	if !isEnginePkg(pkg) && (pkg.Types == nil || pkg.Types.Name() != "server") {
		return
	}
	info := pkg.Info
	cfgs := funcCFGs(pkg.Files)

	units := make([]ast.Node, 0, len(cfgs))
	for u := range cfgs {
		units = append(units, u)
	}
	sort.Slice(units, func(i, j int) bool { return units[i].Pos() < units[j].Pos() })

	// Package-wide evidence: which WaitGroup objects are waited at the
	// top level of which unit, and inside which closures.
	waitsByUnit := map[ast.Node]map[types.Object]bool{}
	pkgWaited := map[types.Object]bool{}
	for _, u := range units {
		w := map[types.Object]bool{}
		forEachLeaf(cfgs[u], func(leaf ast.Node) {
			walkShallow(leaf, func(m ast.Node) bool {
				if obj := wgCallRecv(info, m, "Wait"); obj != nil {
					w[obj] = true
					pkgWaited[obj] = true
				}
				return true
			})
		})
		for _, d := range cfgs[u].Defers {
			ast.Inspect(d.Call, func(m ast.Node) bool {
				if obj := wgCallRecv(info, m, "Wait"); obj != nil {
					w[obj] = true
					pkgWaited[obj] = true
				}
				return true
			})
		}
		waitsByUnit[u] = w
	}

	// Collect spawns.
	var spawns []*spawnSite
	for _, u := range units {
		cfg := cfgs[u]
		// wg.Add positions for bare-go association.
		type addSite struct {
			pos token.Pos
			obj types.Object
		}
		var adds []addSite
		forEachLeaf(cfg, func(leaf ast.Node) {
			walkShallow(leaf, func(m ast.Node) bool {
				if obj := wgCallRecv(info, m, "Add"); obj != nil {
					adds = append(adds, addSite{m.Pos(), obj})
				}
				return true
			})
		})
		forEachLeaf(cfg, func(leaf ast.Node) {
			walkShallow(leaf, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.GoStmt:
					s := &spawnSite{leaf: leaf, unit: u, pos: m.Pos()}
					if lit, ok := ast.Unparen(m.Call.Fun).(*ast.FuncLit); ok {
						s.task = lit
					}
					// Associate the nearest preceding wg.Add in this unit.
					var best token.Pos
					for _, a := range adds {
						if a.pos < m.Pos() && a.pos > best {
							best = a.pos
							s.wg = a.obj
						}
					}
					spawns = append(spawns, s)
				case *ast.CallExpr:
					if fn := calleeFunc(info, m); fn != nil && isResilientSpawn(fn) && len(m.Args) >= 3 {
						s := &spawnSite{leaf: leaf, unit: u, pos: m.Pos()}
						s.wg = wgArgObject(info, m.Args[0])
						if lit, ok := ast.Unparen(m.Args[2]).(*ast.FuncLit); ok {
							s.task = lit
						}
						spawns = append(spawns, s)
					}
				}
				return true
			})
		})
	}

	for _, s := range spawns {
		if lj.resolve(pkg, s, cfgs, waitsByUnit, pkgWaited) {
			continue
		}
		if s.reason != "" {
			report(s.pos, "%s", s.reason)
		} else {
			report(s.pos, "goroutine spawned here never reaches a join point (no WaitGroup.Wait, channel drain, or ctx-cancel select)")
		}
	}
}

func (lj *leakjoin) resolve(pkg *Package, s *spawnSite,
	cfgs map[ast.Node]*CFG, waitsByUnit map[ast.Node]map[types.Object]bool,
	pkgWaited map[types.Object]bool) bool {
	info := pkg.Info
	cfg := cfgs[s.unit]

	if s.wg != nil {
		// Deferred Wait in the spawning unit joins every path.
		for _, d := range cfg.Defers {
			found := false
			ast.Inspect(d.Call, func(m ast.Node) bool {
				if wgCallRecv(info, m, "Wait") == s.wg {
					found = true
				}
				return true
			})
			if found {
				return true
			}
		}
		// Top-level Wait in the spawning unit: must be on every path.
		if waitsByUnit[s.unit][s.wg] {
			ok := cfg.EveryPathHits(s.leaf, func(n ast.Node) bool {
				hit := false
				walkShallow(n, func(m ast.Node) bool {
					if wgCallRecv(info, m, "Wait") == s.wg {
						hit = true
					}
					return true
				})
				return hit
			})
			if ok {
				return true
			}
			s.reason = "WaitGroup.Wait for this spawn is skipped on some path from the spawn to return"
			return false
		}
		// A WaitGroup field: the start/stop split — any Wait in the
		// package joins it.
		if v, ok := s.wg.(*types.Var); ok && v.IsField() {
			if pkgWaited[s.wg] {
				return true
			}
			s.reason = "WaitGroup field " + s.wg.Name() + " for this spawn is never waited anywhere in the package"
			return false
		}
		// The group escaping by address into a callee: assume the
		// callee joins it.
		if wgEscapes(info, s, cfgs) {
			return true
		}
		s.reason = "WaitGroup " + s.wg.Name() + " for this spawn is never waited (and never escapes to a joiner)"
		return false
	}

	// No WaitGroup: the goroutine body itself must be bounded.
	if s.task != nil {
		if ctxBounded(info, s.task) {
			return true
		}
		if ch := sentChannel(info, s.task); ch != nil {
			ok := cfg.EveryPathHits(s.leaf, func(n ast.Node) bool {
				return receivesFrom(info, n, ch)
			})
			if ok {
				return true
			}
			s.reason = "result channel for this goroutine is not drained on every path from the spawn to return"
			return false
		}
	}
	return false
}

// wgEscapes reports whether &wg (or wg) is passed as an argument to any
// call other than the WaitGroup's own methods and the resilient spawn
// helper.
func wgEscapes(info *types.Info, s *spawnSite, cfgs map[ast.Node]*CFG) bool {
	escaped := false
	forEachLeaf(cfgs[s.unit], func(leaf ast.Node) {
		walkShallow(leaf, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(info, call); fn != nil && (isResilientSpawn(fn) ||
				(fn.Pkg() != nil && fn.Pkg().Name() == "sync")) {
				return true
			}
			for _, arg := range call.Args {
				e := ast.Unparen(arg)
				if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
					e = ast.Unparen(u.X)
				}
				if id, ok := e.(*ast.Ident); ok && info.ObjectOf(id) == s.wg {
					escaped = true
				}
			}
			return true
		})
	})
	return escaped
}

// ctxBounded reports whether the goroutine body receives from a
// context's Done channel (directly or as a select case).
func ctxBounded(info *types.Info, lit *ast.FuncLit) bool {
	bounded := false
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		u, ok := m.(*ast.UnaryExpr)
		if !ok || u.Op != token.ARROW {
			return true
		}
		call, ok := ast.Unparen(u.X).(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		if tv, ok := info.Types[sel.X]; ok && isContextType(tv.Type) {
			bounded = true
		}
		return true
	})
	return bounded
}

// sentChannel returns the channel object the goroutine body sends on
// (the result-channel idiom), or nil.
func sentChannel(info *types.Info, lit *ast.FuncLit) types.Object {
	var ch types.Object
	ast.Inspect(lit.Body, func(m ast.Node) bool {
		if send, ok := m.(*ast.SendStmt); ok && ch == nil {
			ch = chanObject(info, send.Chan)
		}
		return true
	})
	return ch
}

// receivesFrom reports whether node n receives from (or ranges over, or
// closes after draining — just receives) the channel object ch.
func receivesFrom(info *types.Info, n ast.Node, ch types.Object) bool {
	found := false
	walkShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.UnaryExpr:
			if m.Op == token.ARROW && chanObject(info, m.X) == ch {
				found = true
			}
		case *ast.RangeStmt:
			if chanObject(info, m.X) == ch {
				found = true
			}
		}
		return true
	})
	return found
}

func chanObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.ObjectOf(e)
	case *ast.SelectorExpr:
		return info.ObjectOf(e.Sel)
	}
	return nil
}

// wgCallRecv, for a call node X.method() on a sync.WaitGroup, returns
// the receiver object (field or variable); nil otherwise.
func wgCallRecv(info *types.Info, m ast.Node, method string) types.Object {
	call, ok := m.(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Name() != method || fn.Pkg() == nil || fn.Pkg().Name() != "sync" {
		return nil
	}
	if recvTypeNameOf(fn) != "WaitGroup" {
		return nil
	}
	return chanObject(info, sel.X)
}

// wgArgObject resolves the first resilient.Go argument (&wg or wg) to
// the WaitGroup object.
func wgArgObject(info *types.Info, arg ast.Expr) types.Object {
	e := ast.Unparen(arg)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	return chanObject(info, e)
}

// forEachLeaf visits every leaf node of every block.
func forEachLeaf(cfg *CFG, fn func(n ast.Node)) {
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			fn(n)
		}
	}
}

// isResilientSpawn reports whether fn is the panic-quarantined spawn
// helper (a function named Go declared in a package named resilient —
// name-matched so fixture stubs count).
func isResilientSpawn(fn *types.Func) bool {
	return fn != nil && fn.Name() == "Go" && declaredIn(fn, "resilient")
}
