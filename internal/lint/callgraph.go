package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// funcNode is one function declaration in the analyzed program.
type funcNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package

	callees []*funcNode // memoized, sorted by qualified name
	summary *funcSummary
	// Tarjan bookkeeping (SCC condensation).
	index, lowlink int
	onStack        bool
}

// callGraph indexes every function declared in the program's analyzed
// packages and resolves static call edges between them. Calls through
// function values, struct fields, and interfaces are not resolved —
// the analyzers using the graph document that boundary.
//
// On top of the raw edges the graph computes one funcSummary per
// function, bottom-up over the SCC-condensed graph, so any analyzer
// asking "does this call block?" or "which locks does this callee
// take?" is interprocedural for free.
type callGraph struct {
	nodes map[*types.Func]*funcNode

	cfg *Config
}

// buildCallGraph indexes all function and method declarations and
// computes per-function summaries. cfg supplies the fault-point call
// table (faultinject.Hit* sites count as blocking: every one of them is
// a latency-injection point under chaos schedules).
func buildCallGraph(prog *Program, cfg *Config) *callGraph {
	g := &callGraph{nodes: map[*types.Func]*funcNode{}, cfg: cfg}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[fn] = &funcNode{fn: fn, decl: fd, pkg: pkg, index: -1}
			}
		}
	}
	g.summarize()
	return g
}

// calleesOf returns the program-internal functions statically called
// from node's body (including calls made inside function literals
// declared in the body — they execute under the same emission root).
// The result is deterministic: sorted by qualified name.
func (g *callGraph) calleesOf(node *funcNode) []*funcNode {
	if node.callees != nil {
		return node.callees
	}
	seen := map[*funcNode]bool{}
	out := []*funcNode{}
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(node.pkg.Info, call)
		if fn == nil {
			return true
		}
		if callee := g.nodes[fn]; callee != nil && !seen[callee] {
			seen[callee] = true
			out = append(out, callee)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		return QualifiedName(out[i].fn) < QualifiedName(out[j].fn)
	})
	node.callees = out
	return out
}

// sortedNodes returns every function node ordered by qualified name,
// the graph's deterministic iteration order.
func (g *callGraph) sortedNodes() []*funcNode {
	all := make([]*funcNode, 0, len(g.nodes))
	for _, node := range g.nodes {
		all = append(all, node)
	}
	sort.Slice(all, func(i, j int) bool { return QualifiedName(all[i].fn) < QualifiedName(all[j].fn) })
	return all
}

// reachable walks static call edges breadth-first from every function
// whose qualified name matches one of the root patterns, seeding the
// roots in name order. It returns the reached functions ordered by
// qualified name, and for each the name of the root that reached it
// first (for diagnostics). No patterns reach nothing.
func (g *callGraph) reachable(patterns []string) ([]*funcNode, map[*funcNode]string, error) {
	var roots []*regexp.Regexp
	for _, pat := range patterns {
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, nil, err
		}
		roots = append(roots, re)
	}
	rootOf := map[*funcNode]string{}
	var worklist []*funcNode
	for _, node := range g.sortedNodes() {
		name := QualifiedName(node.fn)
		if slices.ContainsFunc(roots, func(re *regexp.Regexp) bool { return re.MatchString(name) }) {
			worklist = append(worklist, node)
			rootOf[node] = name
		}
	}
	for len(worklist) > 0 {
		node := worklist[0]
		worklist = worklist[1:]
		for _, callee := range g.calleesOf(node) {
			if _, ok := rootOf[callee]; ok {
				continue
			}
			rootOf[callee] = rootOf[node]
			worklist = append(worklist, callee)
		}
	}
	reached := make([]*funcNode, 0, len(rootOf))
	for node := range rootOf {
		reached = append(reached, node)
	}
	sort.Slice(reached, func(i, j int) bool { return QualifiedName(reached[i].fn) < QualifiedName(reached[j].fn) })
	return reached, rootOf, nil
}

// --- per-function summaries -------------------------------------------

// blockClass says why a function (transitively) blocks.
type blockClass uint8

const (
	blockNone  blockClass = 0
	blockChan  blockClass = 1 << iota // channel send/receive, select without default
	blockNet                          // network round trips (net, net/http)
	blockFile                         // file-system syscalls (os package)
	blockSleep                        // time.Sleep
	blockWait                         // WaitGroup.Wait / Cond.Wait
	blockFault                        // fault-injection points (latency-injectable)
)

// unboundedWait reports whether the class contains a wait that no disk
// scheduler bounds: channel ops, network, sleeps, WaitGroup/Cond waits.
// File I/O and fault points are "bounded" blocking — slow, latency-
// injectable, but not dependent on another goroutine making progress.
func (c blockClass) unboundedWait() bool {
	return c&(blockChan|blockNet|blockSleep|blockWait) != 0
}

func (c blockClass) String() string {
	var parts []string
	for _, e := range []struct {
		bit  blockClass
		name string
	}{
		{blockChan, "channel ops"},
		{blockNet, "network I/O"},
		{blockFile, "file I/O"},
		{blockSleep, "sleeps"},
		{blockWait, "unbounded waits"},
		{blockFault, "fault-injection points"},
	} {
		if c&e.bit != 0 {
			parts = append(parts, e.name)
		}
	}
	if len(parts) == 0 {
		return "nothing blocking"
	}
	return strings.Join(parts, ", ")
}

// blockSite is one concrete reason a function blocks: the syntactic
// site plus a human-readable description. For transitive blocking the
// description names the callee chain's first hop.
type blockSite struct {
	pos  token.Pos
	desc string
	cls  blockClass
}

// funcSummary is the bottom-up interprocedural summary of one function:
// whether (and why) a call to it can block, and which mutexes it
// acquires. Computed over the SCC condensation, so mutual recursion
// converges in one pass.
type funcSummary struct {
	blocks blockClass
	// firstSite is a representative blocking site for diagnostics (the
	// position-smallest direct site, or the first transitive hop).
	firstSite blockSite
	// acquires maps normalized lock keys — "(pkg.Type).field" for
	// locks on a method receiver's field, the receiver expression
	// otherwise — to true when the function body Lock()s them.
	acquires map[string]bool
	// hasCtxParam records whether the function's signature accepts a
	// context.Context (receiver excluded).
	hasCtxParam bool
}

// directBlockCalls classifies well-known stdlib callables that block.
// Only statically resolvable calls are classified; blocking behind
// interfaces (io.Writer to a socket) is out of reach and documented as
// the analyzers' boundary.
var directBlockCalls = map[string]blockClass{
	"time.Sleep":                     blockSleep,
	"(sync.WaitGroup).Wait":          blockWait,
	"(sync.Cond).Wait":               blockWait,
	"net/http.Get":                   blockNet,
	"net/http.Head":                  blockNet,
	"net/http.Post":                  blockNet,
	"net/http.PostForm":              blockNet,
	"(net/http.Client).Do":           blockNet,
	"(net/http.Client).Get":          blockNet,
	"(net/http.Client).Head":         blockNet,
	"(net/http.Client).Post":         blockNet,
	"(net/http.Client).PostForm":     blockNet,
	"(net/http.Transport).RoundTrip": blockNet,
	"net.Dial":                       blockNet,
	"net.DialTimeout":                blockNet,
	"net.DialTCP":                    blockNet,
	"net.DialUDP":                    blockNet,
	"net.DialIP":                     blockNet,
	"net.DialUnix":                   blockNet,
	"(net.Dialer).Dial":              blockNet,
	"(net.Dialer).DialContext":       blockNet,
	"os.ReadFile":                    blockFile,
	"os.WriteFile":                   blockFile,
	"os.Open":                        blockFile,
	"os.OpenFile":                    blockFile,
	"os.Create":                      blockFile,
	"os.CreateTemp":                  blockFile,
	"os.Rename":                      blockFile,
	"os.Remove":                      blockFile,
	"os.RemoveAll":                   blockFile,
	"os.Mkdir":                       blockFile,
	"os.MkdirAll":                    blockFile,
	"os.MkdirTemp":                   blockFile,
	"os.ReadDir":                     blockFile,
	"(os.File).Read":                 blockFile,
	"(os.File).ReadAt":               blockFile,
	"(os.File).Write":                blockFile,
	"(os.File).WriteAt":              blockFile,
	"(os.File).WriteString":          blockFile,
	"(os.File).Sync":                 blockFile,
	"(os.File).Truncate":             blockFile,
	"(os.File).Close":                blockFile,
}

// summarize computes every node's funcSummary bottom-up: Tarjan's SCC
// algorithm emits components in reverse topological order of the
// condensation (callees before callers), so by the time a component is
// summarized every out-of-component callee already has its summary.
// Within a component (mutual recursion) the members share the union.
func (g *callGraph) summarize() {
	index := 0
	var stack []*funcNode
	var strongconnect func(v *funcNode)
	strongconnect = func(v *funcNode) {
		v.index, v.lowlink = index, index
		index++
		stack = append(stack, v)
		v.onStack = true
		for _, w := range g.calleesOf(v) {
			if w.index < 0 {
				strongconnect(w)
				if w.lowlink < v.lowlink {
					v.lowlink = w.lowlink
				}
			} else if w.onStack && w.index < v.lowlink {
				v.lowlink = w.index
			}
		}
		if v.lowlink == v.index {
			// Pop one complete SCC and summarize it.
			var comp []*funcNode
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				w.onStack = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			g.summarizeComponent(comp)
		}
	}
	for _, v := range g.sortedNodes() {
		if v.index < 0 {
			strongconnect(v)
		}
	}
}

// summarizeComponent computes the shared summary of one SCC: the union
// of every member's direct blocking sites and lock acquisitions plus
// everything already summarized in out-of-component callees.
func (g *callGraph) summarizeComponent(comp []*funcNode) {
	inComp := map[*funcNode]bool{}
	for _, n := range comp {
		inComp[n] = true
	}
	sum := &funcSummary{acquires: map[string]bool{}}
	for _, n := range comp {
		direct := g.directSummary(n)
		sum.blocks |= direct.blocks
		if sum.firstSite.cls == blockNone && direct.firstSite.cls != blockNone {
			sum.firstSite = direct.firstSite
		}
		for k := range direct.acquires {
			sum.acquires[k] = true
		}
		for _, callee := range g.calleesOf(n) {
			if inComp[callee] || callee.summary == nil {
				continue
			}
			if _, isFaultPoint := g.cfg.FaultPointFuncs[QualifiedName(callee.fn)]; isFaultPoint {
				// A fault point's implementation sleeps to inject the
				// configured latency; to callers that is the blockFault
				// classification directSummary already recorded, not a
				// genuine sleep of their own.
				continue
			}
			cs := callee.summary
			if cs.blocks != blockNone {
				sum.blocks |= cs.blocks
				if sum.firstSite.cls == blockNone {
					sum.firstSite = blockSite{
						pos:  n.decl.Pos(),
						desc: "call to " + QualifiedName(callee.fn) + " (" + cs.blocks.String() + ")",
						cls:  cs.blocks,
					}
				}
			}
		}
	}
	for _, n := range comp {
		s := *sum
		s.hasCtxParam = hasContextParam(n.fn)
		n.summary = &s
	}
}

// directSummary scans one function body for syntactically direct
// blocking sites and lock acquisitions (no propagation).
func (g *callGraph) directSummary(n *funcNode) *funcSummary {
	sum := &funcSummary{acquires: map[string]bool{}}
	record := func(pos token.Pos, desc string, cls blockClass) {
		sum.blocks |= cls
		if sum.firstSite.cls == blockNone {
			sum.firstSite = blockSite{pos: pos, desc: desc, cls: cls}
		}
	}
	info := n.pkg.Info
	var walk func(node ast.Node) bool
	walk = func(nd ast.Node) bool {
		switch s := nd.(type) {
		case *ast.SendStmt:
			record(s.Pos(), "channel send "+types.ExprString(s.Chan)+" <-", blockChan)
		case *ast.UnaryExpr:
			if s.Op == token.ARROW {
				record(s.Pos(), "channel receive <-"+types.ExprString(s.X), blockChan)
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(s.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					record(s.Pos(), "range over channel "+types.ExprString(s.X), blockChan)
				}
			}
		case *ast.SelectStmt:
			// A select with a default clause never blocks; skip the comm
			// clauses' channel operations but still walk the bodies.
			if selectHasDefault(s) {
				for _, cl := range s.Body.List {
					cc := cl.(*ast.CommClause)
					for _, st := range cc.Body {
						ast.Inspect(st, walk)
					}
				}
				return false
			}
			record(s.Pos(), "select without default", blockChan)
		case *ast.CallExpr:
			fn := calleeOf(info, s)
			if fn == nil {
				return true
			}
			q := QualifiedName(fn)
			if cls, ok := directBlockCalls[q]; ok {
				record(s.Pos(), "call to "+q, cls)
			}
			if _, ok := g.cfg.FaultPointFuncs[q]; ok {
				record(s.Pos(), "fault-injection point "+q, blockFault)
			}
			if key, ok := lockAcquisition(info, s, n); ok {
				sum.acquires[key] = true
			}
		}
		return true
	}
	ast.Inspect(n.decl.Body, walk)
	return sum
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// mutexMethod classifies calls to sync.Mutex/RWMutex methods; returns
// the method name ("Lock", "RLock", "Unlock", "RUnlock") and the
// receiver expression, or "".
func mutexMethod(info *types.Info, call *ast.CallExpr) (method string, recv ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	fn := calleeOf(info, call)
	if fn == nil {
		return "", nil
	}
	switch QualifiedName(fn) {
	case "(sync.Mutex).Lock", "(sync.Mutex).Unlock",
		"(sync.RWMutex).Lock", "(sync.RWMutex).Unlock",
		"(sync.RWMutex).RLock", "(sync.RWMutex).RUnlock":
		return fn.Name(), sel.X
	}
	return "", nil
}

// lockAcquisition reports a Lock/RLock call in n's body as a normalized
// lock key. A lock on a field of the method receiver normalizes to
// "(pkg.Type).field.path", so the same logical mutex gets the same key
// in every method of the type; anything else keys by its expression
// text within the function.
func lockAcquisition(info *types.Info, call *ast.CallExpr, n *funcNode) (string, bool) {
	method, recv := mutexMethod(info, call)
	if method != "Lock" && method != "RLock" {
		return "", false
	}
	return normalizeLockKey(info, recv, n), true
}

// normalizeLockKey renders the mutex expression: when rooted at the
// enclosing method's receiver, the root is replaced by the receiver's
// type so summaries compare across methods of one type.
func normalizeLockKey(info *types.Info, expr ast.Expr, n *funcNode) string {
	root := expr
	for {
		if sel, ok := ast.Unparen(root).(*ast.SelectorExpr); ok {
			root = sel.X
			continue
		}
		break
	}
	ident, ok := ast.Unparen(root).(*ast.Ident)
	if !ok {
		return types.ExprString(expr)
	}
	sig, _ := n.fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return types.ExprString(expr)
	}
	obj := info.Uses[ident]
	if obj == nil || obj != sig.Recv() {
		return types.ExprString(expr)
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return types.ExprString(expr)
	}
	typeKey := "(" + named.Obj().Pkg().Path() + "." + named.Obj().Name() + ")"
	full := types.ExprString(expr)
	rest := strings.TrimPrefix(full, ident.Name)
	return typeKey + rest
}

// hasContextParam reports whether fn's parameters include a
// context.Context.
func hasContextParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
