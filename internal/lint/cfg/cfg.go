// Package cfg builds intra-procedural control-flow graphs over go/ast
// function bodies — the foundation of jem-vet's second-generation
// analyzers (spanend, goleak). Like the rest of internal/lint it is
// stdlib-only: no x/tools, just go/ast.
//
// The graph is statement-granular: every plain statement (assignments,
// calls, defers, returns, ...) is appended to exactly one basic block,
// while compound statements (if/for/switch/select/range) are
// decomposed into blocks and edges. Expressions are not modeled — the
// analyzers that need expression-level facts inspect the statements a
// block carries. Function literals are opaque: their bodies run at
// some other time, so the builder does not descend into them (build a
// separate Graph for a literal's body).
//
// Limits, by design: `goto` into the middle of a loop constructs the
// obvious edge but no legality checking; panics are modeled only for
// the builtin panic (an Option can extend the terminating-call set);
// recover-based resumption is not modeled. These keep the builder
// ~300 lines while covering every shape the repository actually
// contains.
package cfg

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a run of straight-line statements with a
// single entry and edges to its possible successors.
type Block struct {
	// Index is the block's position in Graph.Blocks (stable, build
	// order: entry first, exit last).
	Index int
	// Stmts are the plain statements executed in order when control
	// enters the block. Compound statements are decomposed and do not
	// appear; their leaves do.
	Stmts []ast.Stmt
	// Succs are the blocks control may transfer to next. Empty for the
	// exit block and for blocks that provably never yield control
	// (select{} with no cases).
	Succs []*Block
}

// addSucc appends s to b.Succs, deduplicating.
func (b *Block) addSucc(s *Block) {
	for _, have := range b.Succs {
		if have == s {
			return
		}
	}
	b.Succs = append(b.Succs, s)
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Entry is the block control enters first.
	Entry *Block
	// Exit is the synthetic exit block: every return, every
	// terminating call, and the body's fall-off-the-end edge lead
	// here. Exit carries no statements.
	Exit *Block
	// Blocks lists every block, Entry first and Exit last.
	Blocks []*Block

	blockOf map[ast.Stmt]*Block
}

// Option customizes graph construction.
type Option func(*builder)

// WithTerminating registers an extra predicate for calls that never
// return (os.Exit, log.Fatal, testing.T.Fatal...). The builtin panic
// is always terminating. A statement whose top-level expression is a
// terminating call ends its block with an edge straight to Exit.
func WithTerminating(fn func(*ast.CallExpr) bool) Option {
	return func(b *builder) { b.terminating = fn }
}

// New builds the control-flow graph of body.
func New(body *ast.BlockStmt, opts ...Option) *Graph {
	g := &Graph{blockOf: make(map[ast.Stmt]*Block)}
	b := &builder{g: g, labels: make(map[string]*labelBlocks)}
	for _, o := range opts {
		o(b)
	}
	g.Entry = b.newBlock()
	g.Exit = &Block{}
	b.cur = g.Entry
	b.stmtList(body.List)
	// Fall off the end of the body = implicit return.
	if b.cur != nil {
		b.cur.addSucc(g.Exit)
	}
	g.Exit.Index = len(g.Blocks)
	g.Blocks = append(g.Blocks, g.Exit)
	return g
}

// BlockOf returns the block a plain statement was appended to, or nil
// for compound statements (which are decomposed) and statements from
// other functions.
func (g *Graph) BlockOf(s ast.Stmt) *Block { return g.blockOf[s] }

// CanReach reports whether control can flow from `from` to `to` along
// zero or more edges without entering a block for which blocked
// returns true (blocked may be nil; `from` itself is not tested, `to`
// is reached even if blocked — callers that want "reach to strictly
// avoiding X" should fold that into blocked).
func (g *Graph) CanReach(from, to *Block, blocked func(*Block) bool) bool {
	if from == to {
		return true
	}
	seen := make([]bool, len(g.Blocks))
	stack := []*Block{from}
	seen[from.Index] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if s == to {
				return true
			}
			if seen[s.Index] || (blocked != nil && blocked(s)) {
				continue
			}
			seen[s.Index] = true
			stack = append(stack, s)
		}
	}
	return false
}

// labelBlocks tracks the blocks a label can transfer control to.
type labelBlocks struct {
	target *Block // goto / labeled-statement entry
	brk    *Block // break <label>
	cont   *Block // continue <label>
}

// loopCtx is one enclosing breakable/continuable construct.
type loopCtx struct {
	brk   *Block
	cont  *Block // nil for switch/select (not continuable)
	label string
}

type builder struct {
	g           *Graph
	cur         *Block // nil while statements are unreachable
	loops       []loopCtx
	labels      map[string]*labelBlocks
	terminating func(*ast.CallExpr) bool
	// pendingLabel carries a label to attach to the next loop/switch
	// so `break L` / `continue L` resolve.
	pendingLabel string
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// use appends s to the current block (creating an unreachable block if
// control already diverged, so statements after `return` still get a
// home and BlockOf stays total over reachable-or-not code).
func (b *builder) use(s ast.Stmt) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Stmts = append(b.cur.Stmts, s)
	b.g.blockOf[s] = b.cur
}

// jump ends the current block with an edge to target and marks the
// following statements unreachable until a new block starts.
func (b *builder) jump(target *Block) {
	if b.cur != nil {
		b.cur.addSucc(target)
	}
	b.cur = nil
}

// startBlock begins a new block reachable from the current one.
func (b *builder) startBlock() *Block {
	nb := b.newBlock()
	if b.cur != nil {
		b.cur.addSucc(nb)
	}
	b.cur = nb
	return nb
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// labelFor consumes the pending label for a loop/switch/select.
func (b *builder) labelFor() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(x.List)

	case *ast.LabeledStmt:
		lb := b.labelInfo(x.Label.Name)
		// The label is a join point: goto L lands here.
		if lb.target == nil {
			lb.target = b.newBlock()
		}
		if b.cur != nil {
			b.cur.addSucc(lb.target)
		}
		b.cur = lb.target
		b.pendingLabel = x.Label.Name
		b.stmt(x.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if x.Init != nil {
			b.use(x.Init)
		}
		cond := b.cur
		if cond == nil {
			cond = b.startBlock()
		}
		after := b.newBlock()
		// then branch
		b.cur = b.newBlock()
		cond.addSucc(b.cur)
		b.stmtList(x.Body.List)
		b.jump(after)
		// else branch (or fallthrough past the if)
		if x.Else != nil {
			b.cur = b.newBlock()
			cond.addSucc(b.cur)
			b.stmt(x.Else)
			b.jump(after)
		} else {
			cond.addSucc(after)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.labelFor()
		if x.Init != nil {
			b.use(x.Init)
		}
		head := b.startBlock()
		after := b.newBlock()
		if x.Cond != nil {
			head.addSucc(after) // condition false exits the loop
		}
		post := head // `continue` target: the post statement, else the head
		if x.Post != nil {
			post = b.newBlock()
		}
		b.loops = append(b.loops, loopCtx{brk: after, cont: post, label: label})
		b.cur = b.newBlock()
		head.addSucc(b.cur)
		b.stmtList(x.Body.List)
		if x.Post != nil {
			b.jump(post)
			b.cur = post
			b.use(x.Post)
			b.jump(head)
		} else {
			b.jump(head)
		}
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = after

	case *ast.RangeStmt:
		label := b.labelFor()
		head := b.startBlock()
		after := b.newBlock()
		// A range always has an exit edge: the sequence ends (for a
		// channel, when it is closed — the supervision analyzers treat
		// that as a termination edge deliberately).
		head.addSucc(after)
		b.loops = append(b.loops, loopCtx{brk: after, cont: head, label: label})
		b.cur = b.newBlock()
		head.addSucc(b.cur)
		b.stmtList(x.Body.List)
		b.jump(head)
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		label := b.labelFor()
		var init ast.Stmt
		var clauses []ast.Stmt
		hasDefault := false
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			init = sw.Init
			clauses = sw.Body.List
			if init != nil {
				b.use(init)
			}
		case *ast.TypeSwitchStmt:
			init = sw.Init
			clauses = sw.Body.List
			if init != nil {
				b.use(init)
			}
			b.use(sw.Assign)
		}
		head := b.cur
		if head == nil {
			head = b.startBlock()
		}
		after := b.newBlock()
		b.loops = append(b.loops, loopCtx{brk: after, label: label})
		// Build clause blocks first so fallthrough can edge to the next.
		blocks := make([]*Block, len(clauses))
		for i := range clauses {
			blocks[i] = b.newBlock()
			head.addSucc(blocks[i])
		}
		for i, c := range clauses {
			cc := c.(*ast.CaseClause)
			if cc.List == nil {
				hasDefault = true
			}
			b.cur = blocks[i]
			b.caseBody(cc.Body, blocks, i, after)
		}
		if !hasDefault {
			head.addSucc(after)
		}
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = after

	case *ast.SelectStmt:
		label := b.labelFor()
		head := b.cur
		if head == nil {
			head = b.startBlock()
		}
		after := b.newBlock()
		b.loops = append(b.loops, loopCtx{brk: after, label: label})
		// select{} with no cases blocks forever: head keeps zero
		// successors and `after` stays unreachable — exactly the shape
		// the goleak analyzer wants to see.
		for _, c := range x.Body.List {
			cc := c.(*ast.CommClause)
			b.cur = b.newBlock()
			head.addSucc(b.cur)
			if cc.Comm != nil {
				b.use(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.jump(after)
		}
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = after

	case *ast.ReturnStmt:
		b.use(s)
		b.jump(b.g.Exit)

	case *ast.BranchStmt:
		b.branch(x)

	case *ast.ExprStmt:
		b.use(s)
		if call, ok := x.X.(*ast.CallExpr); ok && b.isTerminating(call) {
			b.jump(b.g.Exit)
		}

	default:
		// Plain statements: declarations, assignments, sends, incdec,
		// defer, go, empty. All straight-line.
		b.use(s)
	}
}

// caseBody builds one switch-case body; fallthrough edges to the next
// clause's block.
func (b *builder) caseBody(body []ast.Stmt, blocks []*Block, i int, after *Block) {
	for _, s := range body {
		if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
			if i+1 < len(blocks) {
				b.jump(blocks[i+1])
			} else {
				b.jump(after)
			}
			return
		}
		b.stmt(s)
	}
	b.jump(after)
}

func (b *builder) labelInfo(name string) *labelBlocks {
	lb := b.labels[name]
	if lb == nil {
		lb = &labelBlocks{}
		b.labels[name] = lb
	}
	return lb
}

func (b *builder) branch(x *ast.BranchStmt) {
	switch x.Tok {
	case token.BREAK:
		if x.Label != nil {
			for i := len(b.loops) - 1; i >= 0; i-- {
				if b.loops[i].label == x.Label.Name {
					b.jump(b.loops[i].brk)
					return
				}
			}
		} else if n := len(b.loops); n > 0 {
			b.jump(b.loops[n-1].brk)
			return
		}
		b.cur = nil
	case token.CONTINUE:
		if x.Label != nil {
			for i := len(b.loops) - 1; i >= 0; i-- {
				if b.loops[i].label == x.Label.Name && b.loops[i].cont != nil {
					b.jump(b.loops[i].cont)
					return
				}
			}
		} else {
			for i := len(b.loops) - 1; i >= 0; i-- {
				if b.loops[i].cont != nil {
					b.jump(b.loops[i].cont)
					return
				}
			}
		}
		b.cur = nil
	case token.GOTO:
		if x.Label != nil {
			lb := b.labelInfo(x.Label.Name)
			if lb.target == nil {
				lb.target = b.newBlock()
			}
			b.jump(lb.target)
			return
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// Handled by caseBody; a stray one (invalid Go) ends the block.
		b.cur = nil
	}
}

// isTerminating reports whether the call never returns: the builtin
// panic, plus whatever the WithTerminating option registered.
func (b *builder) isTerminating(call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
		return true
	}
	return b.terminating != nil && b.terminating(call)
}
