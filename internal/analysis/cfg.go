package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the intraprocedural control-flow layer leakjoin is built
// on: a per-function CFG over go/ast with basic blocks and
// branch/loop/select/defer edges, queried through EveryPathHits.
//
// Blocks hold *leaf* nodes in execution order: plain statements,
// condition/tag/range expressions, and two shallow composite markers
// (*ast.SelectStmt for blocking detection, *ast.RangeStmt for the
// per-iteration assignment). Composite statements whose bodies the CFG
// expands are never appended whole, so an analyzer can walk
// each node's subtree (via walkShallow) without double-visiting.
// Function literals get their own CFGs (FuncCFGs); walkShallow never
// descends into them.

// Block is one basic block.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// CFG is the control-flow graph of one function body (declared function
// or function literal). Entry has no predecessors; every normal return
// path reaches Exit. Paths that end in a recognized terminator (panic,
// os.Exit, runtime.Goexit, log.Fatal*) do not reach Exit.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	Exit   *Block
	// Defers are the defer statements of the body, in source order.
	// Their calls run at every exit; analyses that care (deferred
	// Unlock, deferred Wait) read them directly instead of modeling
	// the unwind edges.
	Defers []*ast.DeferStmt

	index map[ast.Node]nodeRef // leaf node -> position in the graph
}

type nodeRef struct {
	block *Block
	i     int
}

// buildCFG constructs the CFG for one function body.
func buildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{index: map[ast.Node]nodeRef{}},
		labels: map[string]*labelTargets{},
	}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmts(body.List)
	if b.cur != nil {
		b.link(b.cur, b.cfg.Exit)
	}
	for _, g := range b.gotos {
		if t := b.labels[g.label]; t != nil && t.entry != nil {
			b.link(g.from, t.entry)
		} else {
			// Unresolved goto (label in a part of the body we gave up
			// on): conservatively an exit edge.
			b.link(g.from, b.cfg.Exit)
		}
	}
	return b.cfg
}

// labelTargets are the jump targets one label can name.
type labelTargets struct {
	entry *Block // goto target: where the labeled statement starts
	brk   *Block // break LABEL target (set while building the labeled loop/switch)
	cont  *Block // continue LABEL target (loops only)
}

type gotoFixup struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	cfg *CFG
	cur *Block // nil while statements are unreachable

	// Innermost-last stacks of break/continue targets.
	breaks    []*Block
	continues []*Block

	labels map[string]*labelTargets
	gotos  []gotoFixup

	// pendingLabel is set between a LabeledStmt and the loop/switch it
	// labels, so the loop builder can register break/continue targets.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) link(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// add appends a leaf node to the current block (creating an unreachable
// block if control cannot get here, so every node stays queryable).
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cfg.index[n] = nodeRef{b.cur, len(b.cur.Nodes)}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)

	case *ast.ReturnStmt:
		b.add(s)
		b.link(b.cur, b.cfg.Exit)
		b.cur = nil

	case *ast.DeferStmt:
		b.add(s)
		b.cfg.Defers = append(b.cfg.Defers, s)

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.LabeledStmt:
		t := &labelTargets{}
		b.labels[s.Label.Name] = t
		entry := b.newBlock()
		if b.cur != nil {
			b.link(b.cur, entry)
		}
		b.cur = entry
		t.entry = entry
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s)

	case *ast.RangeStmt:
		b.rangeStmt(s)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(s.Body.List, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(s.Body.List, false)

	case *ast.SelectStmt:
		b.selectStmt(s)

	case *ast.ExprStmt:
		b.add(s)
		if isTerminatorCall(s.X) {
			b.cur = nil
		}

	default:
		// AssignStmt, DeclStmt, SendStmt, IncDecStmt, GoStmt,
		// EmptyStmt: straight-line leaves.
		b.add(s)
	}
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	b.add(s)
	from := b.cur
	b.cur = nil
	switch s.Tok {
	case token.BREAK:
		if s.Label != nil {
			if t := b.labels[s.Label.Name]; t != nil && t.brk != nil {
				b.link(from, t.brk)
				return
			}
		} else if n := len(b.breaks); n > 0 {
			b.link(from, b.breaks[n-1])
			return
		}
		b.link(from, b.cfg.Exit) // malformed; stay conservative
	case token.CONTINUE:
		if s.Label != nil {
			if t := b.labels[s.Label.Name]; t != nil && t.cont != nil {
				b.link(from, t.cont)
				return
			}
		} else if n := len(b.continues); n > 0 {
			b.link(from, b.continues[n-1])
			return
		}
		b.link(from, b.cfg.Exit)
	case token.GOTO:
		b.gotos = append(b.gotos, gotoFixup{from, s.Label.Name})
	case token.FALLTHROUGH:
		// Edge added by switchClauses, which sees the clause tail.
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	head := b.cur

	then := b.newBlock()
	b.link(head, then)
	b.cur = then
	b.stmts(s.Body.List)
	thenEnd := b.cur

	var elseEnd *Block
	hasElse := s.Else != nil
	if hasElse {
		els := b.newBlock()
		b.link(head, els)
		b.cur = els
		b.stmt(s.Else)
		elseEnd = b.cur
	}

	after := b.newBlock()
	if !hasElse {
		b.link(head, after)
	}
	if thenEnd != nil {
		b.link(thenEnd, after)
	}
	if elseEnd != nil {
		b.link(elseEnd, after)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock()
	if b.cur != nil {
		b.link(b.cur, head)
	}
	b.cur = head
	if s.Cond != nil {
		b.add(s.Cond)
	}
	after := b.newBlock()
	if s.Cond != nil {
		b.link(head, after) // cond-false edge; `for {}` has none
	}

	contTarget := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
		b.cur = post
		b.stmt(s.Post)
		b.link(b.cur, head)
		contTarget = post
	}

	if label != "" {
		b.labels[label].brk = after
		b.labels[label].cont = contTarget
	}

	body := b.newBlock()
	b.link(head, body)
	b.breaks = append(b.breaks, after)
	b.continues = append(b.continues, contTarget)
	b.cur = body
	b.stmts(s.Body.List)
	if b.cur != nil {
		b.link(b.cur, contTarget)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]

	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	head := b.newBlock()
	if b.cur != nil {
		b.link(b.cur, head)
	}
	b.cur = head
	// The RangeStmt itself is the per-iteration leaf (range expr
	// evaluation + key/value assignment); walkShallow visits only
	// Key/Value/X, never the body.
	b.add(s)

	after := b.newBlock()
	b.link(head, after)

	if label != "" {
		b.labels[label].brk = after
		b.labels[label].cont = head
	}

	body := b.newBlock()
	b.link(head, body)
	b.breaks = append(b.breaks, after)
	b.continues = append(b.continues, head)
	b.cur = body
	b.stmts(s.Body.List)
	if b.cur != nil {
		b.link(b.cur, head)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]

	b.cur = after
}

// switchClauses builds the clause bodies of a switch or type switch.
// Every clause is reachable from the head; without a default the head
// also flows straight to after.
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, exprCases bool) {
	label := b.pendingLabel
	b.pendingLabel = ""
	head := b.cur
	if head == nil {
		head = b.newBlock()
	}
	after := b.newBlock()
	if label != "" {
		b.labels[label].brk = after
	}
	b.breaks = append(b.breaks, after)

	hasDefault := false
	bodies := make([]*Block, len(clauses))
	for i, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		b.link(head, blk)
		bodies[i] = blk
		b.cur = blk
		if exprCases {
			for _, e := range cc.List {
				b.add(e)
			}
		}
	}
	for i, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok || bodies[i] == nil {
			continue
		}
		b.cur = bodies[i]
		b.stmts(cc.Body)
		if ft := fallsThrough(cc.Body); ft && i+1 < len(clauses) && bodies[i+1] != nil {
			if b.cur != nil {
				b.link(b.cur, bodies[i+1])
			}
		} else if b.cur != nil {
			b.link(b.cur, after)
		}
	}
	if !hasDefault {
		b.link(head, after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	// The SelectStmt node itself is the blocking marker in the head
	// block; walkShallow does not descend into it.
	b.add(s)
	head := b.cur
	after := b.newBlock()
	b.breaks = append(b.breaks, after)
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.link(head, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		b.stmts(cc.Body)
		if b.cur != nil {
			b.link(b.cur, after)
		}
	}
	// A select always takes some branch, so there is no head->after
	// edge; `select {}` parks the goroutine and leaves head a dead end.
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

// isTerminatorCall recognizes calls that never return: panic, os.Exit,
// runtime.Goexit, log.Fatal*. Paths through them are excluded from
// "reaches Exit" reasoning (panic unwinds into a recover boundary, not
// into the function's fallthrough code).
func isTerminatorCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			switch {
			case x.Name == "os" && fun.Sel.Name == "Exit":
				return true
			case x.Name == "runtime" && fun.Sel.Name == "Goexit":
				return true
			case x.Name == "log" && (fun.Sel.Name == "Fatal" ||
				fun.Sel.Name == "Fatalf" || fun.Sel.Name == "Fatalln"):
				return true
			}
		}
	}
	return false
}

// walkShallow visits n's subtree the way the CFG flattened it: it does
// not descend into function literals (they have their own CFGs), nor
// into the bodies of the shallow composite markers (SelectStmt; for a
// RangeStmt only Key/Value/X are visited) — those statements live in
// their own blocks.
func walkShallow(n ast.Node, fn func(ast.Node) bool) {
	switch n := n.(type) {
	case *ast.SelectStmt:
		fn(n)
		return
	case *ast.RangeStmt:
		if !fn(n) {
			return
		}
		for _, e := range []ast.Expr{n.Key, n.Value, n.X} {
			if e != nil {
				walkShallow(e, fn)
			}
		}
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		return fn(m)
	})
}

// EveryPathHits reports whether every path from just after `from` to
// Exit passes a node satisfying hit. Paths that never reach Exit
// (infinite loops, terminator calls) vacuously satisfy it. If `from` is
// not a node of this CFG it returns false.
func (c *CFG) EveryPathHits(from ast.Node, hit func(ast.Node) bool) bool {
	ref, ok := c.index[from]
	if !ok {
		return false
	}
	// Rest of the spawning block first.
	for _, n := range ref.block.Nodes[ref.i+1:] {
		if hit(n) {
			return true
		}
	}
	// DFS over successors; a block whose nodes contain a hit stops that
	// path. Reaching Exit without a hit is a miss.
	seen := make([]bool, len(c.Blocks))
	var leak func(b *Block) bool
	leak = func(b *Block) bool {
		if b == c.Exit {
			return true
		}
		if seen[b.Index] {
			return false
		}
		seen[b.Index] = true
		for _, n := range b.Nodes {
			if hit(n) {
				return false
			}
		}
		for _, s := range b.Succs {
			if leak(s) {
				return true
			}
		}
		return false
	}
	for _, s := range ref.block.Succs {
		if leak(s) {
			return false
		}
	}
	return true
}

// funcCFGs builds the CFG of every function body in file order: each
// declared function and each function literal separately. The map key
// is the *ast.FuncDecl or *ast.FuncLit node.
func funcCFGs(files []*ast.File) map[ast.Node]*CFG {
	out := map[ast.Node]*CFG{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					out[n] = buildCFG(n.Body)
				}
			case *ast.FuncLit:
				out[n] = buildCFG(n.Body)
			}
			return true
		})
	}
	return out
}
