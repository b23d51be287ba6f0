package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseFunc parses src (a complete file) and returns the CFG of the
// named function plus the file for node hunting.
func parseFunc(t *testing.T, src, name string) (*ast.File, *CFG) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_test.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name && fd.Body != nil {
			return f, buildCFG(fd.Body)
		}
	}
	t.Fatalf("no function %s in source", name)
	return nil, nil
}

// findCall locates the leaf node (ExprStmt) calling the named function.
func findCall(t *testing.T, f *ast.File, name string) ast.Node {
	t.Helper()
	var found ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		if call, ok := es.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
				found = es
			}
		}
		return true
	})
	if found == nil {
		t.Fatalf("no call to %s in source", name)
	}
	return found
}

// hitsCall matches a leaf that calls the named function.
func hitsCall(name string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		hit := false
		walkShallow(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
					hit = true
				}
			}
			return true
		})
		return hit
	}
}

const branchSrc = `package p

func spawn() {}
func join()  {}
func other() {}

// joined calls join on both paths after spawn.
func joined(ok bool) {
	spawn()
	if ok {
		join()
	} else {
		join()
	}
}

// skipped misses join on the else path.
func skipped(ok bool) {
	spawn()
	if ok {
		join()
	}
	other()
}

// earlyReturn leaves before the join on one path.
func earlyReturn(ok bool) {
	spawn()
	if ok {
		return
	}
	join()
}

// terminated panics instead of joining: the panic path never reaches
// Exit, so it vacuously satisfies every-path.
func terminated(ok bool) {
	spawn()
	if !ok {
		panic("boom")
	}
	join()
}

// looped joins after a loop body that may repeat.
func looped(n int) {
	spawn()
	for i := 0; i < n; i++ {
		other()
	}
	join()
}
`

func TestEveryPathHits(t *testing.T) {
	cases := []struct {
		fn   string
		want bool
	}{
		{"joined", true},
		{"skipped", false},
		{"earlyReturn", false},
		{"terminated", true},
		{"looped", true},
	}
	for _, c := range cases {
		t.Run(c.fn, func(t *testing.T) {
			f, cfg := parseFunc(t, branchSrc, c.fn)
			// Hunt the spawn call inside this function only.
			var from ast.Node
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name != c.fn {
					continue
				}
				ast.Inspect(fd, func(n ast.Node) bool {
					if es, ok := n.(*ast.ExprStmt); ok {
						if call, ok := es.X.(*ast.CallExpr); ok {
							if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "spawn" {
								from = es
							}
						}
					}
					return true
				})
			}
			if from == nil {
				t.Fatal("no spawn call")
			}
			if got := cfg.EveryPathHits(from, hitsCall("join")); got != c.want {
				t.Errorf("EveryPathHits(%s) = %v, want %v", c.fn, got, c.want)
			}
		})
	}
}

func TestCFGSelectAndRangeMarkers(t *testing.T) {
	src := `package p

func f(ch chan int, xs []int) {
	select {
	case v := <-ch:
		_ = v
	}
	for _, x := range xs {
		_ = x
	}
}
`
	_, cfg := parseFunc(t, src, "f")
	var haveSelect, haveRange bool
	for _, b := range cfg.Blocks {
		for _, n := range b.Nodes {
			switch n.(type) {
			case *ast.SelectStmt:
				haveSelect = true
			case *ast.RangeStmt:
				haveRange = true
			}
		}
	}
	if !haveSelect {
		t.Error("no SelectStmt marker in any block")
	}
	if !haveRange {
		t.Error("no RangeStmt marker in any block")
	}
}

// TestFlowMay: after an if/else where only one branch gens the fact,
// the union merge sees it set.
func TestFlowMay(t *testing.T) {
	src := `package p

func gen()   {}
func after() {}

func f(ok bool) {
	if ok {
		gen()
	}
	after()
}
`
	f, cfg := parseFunc(t, src, "f")
	transfer := func(n ast.Node, facts *BitSet) {
		if hitsCall("gen")(n) {
			facts.Set(0)
		}
	}
	at := findCall(t, f, "after")

	may := &Flow{CFG: cfg, NumFacts: 1, Transfer: transfer}
	facts, ok := may.At(at, may.Solve())
	if !ok {
		t.Fatal("after() not found in CFG")
	}
	if !facts.Has(0) {
		t.Error("may-analysis lost the fact from the taken branch")
	}
}

// TestFlowKill: a gen followed by a kill on the same path leaves the
// fact clear downstream.
func TestFlowKill(t *testing.T) {
	src := `package p

func gen()   {}
func kill()  {}
func after() {}

func f() {
	gen()
	kill()
	after()
}
`
	f, cfg := parseFunc(t, src, "f")
	transfer := func(n ast.Node, facts *BitSet) {
		if hitsCall("gen")(n) {
			facts.Set(0)
		}
		if hitsCall("kill")(n) {
			facts.Clear(0)
		}
	}
	flow := &Flow{CFG: cfg, NumFacts: 1, Transfer: transfer}
	facts, ok := flow.At(findCall(t, f, "after"), flow.Solve())
	if !ok {
		t.Fatal("after() not found in CFG")
	}
	if facts.Has(0) {
		t.Error("kill did not clear the fact")
	}
}

// TestFlowLoopFixpoint: a fact genned inside a loop body reaches the
// loop head through the back edge (may-analysis worklist convergence).
func TestFlowLoopFixpoint(t *testing.T) {
	src := `package p

func gen()  {}
func head() bool { return false }

func f() {
	for head() {
		gen()
	}
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "loop.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var cfg *CFG
	var cond ast.Node
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			cfg = buildCFG(fd.Body)
			ast.Inspect(fd, func(n ast.Node) bool {
				if fs, ok := n.(*ast.ForStmt); ok {
					cond = fs.Cond
				}
				return true
			})
		}
	}
	if cfg == nil || cond == nil {
		t.Fatal("loop not found")
	}
	transfer := func(n ast.Node, facts *BitSet) {
		if hitsCall("gen")(n) {
			facts.Set(0)
		}
	}
	flow := &Flow{CFG: cfg, NumFacts: 1, Transfer: transfer}
	facts, ok := flow.At(cond, flow.Solve())
	if !ok {
		t.Fatal("loop condition not a CFG leaf")
	}
	if !facts.Has(0) {
		t.Error("fact genned in the loop body did not flow around the back edge")
	}
}
