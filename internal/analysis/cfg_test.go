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
