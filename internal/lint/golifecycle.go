package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoLifecycleAnalyzer bans fire-and-forget goroutines in serving code.
// Every `go` statement in a function statically reachable from a
// configured lifecycle root (the daemon/cluster/CLI entry points) must
// carry a visible lifecycle edge — some way for the rest of the program
// to join it, stop it, or observe its completion:
//
//   - a join: the goroutine body calls (sync.WaitGroup).Done (the
//     Add/Done/Wait protocol — Close paths wait on the group);
//   - a cancellation edge: the body references a context.Context (it
//     selects on ctx.Done() or passes the ctx into cancelable calls);
//   - a completion/stop signal: the body sends on, receives from,
//     closes, selects over, or ranges over a channel (worker loops
//     draining a closed task channel, `errc <- srv.Serve(ln)` hand-offs,
//     `close(done)` signals, `<-stop` listeners all qualify);
//   - or the spawning function (or the spawned named function) is
//     registered in Config.DetachedGoroutines, the audited allowlist
//     for goroutines whose lifecycle is owned elsewhere.
//
// A goroutine with none of these outlives every shutdown path silently:
// it keeps computing after Drain, holds references past Close, and —
// under the repo's byte-identity contract — can interleave writes into
// artifacts that a clean shutdown was supposed to have sealed. `go`
// statements whose callee cannot be resolved statically (method values,
// interface calls, function-typed fields) are flagged too: an
// unanalyzable spawn is an unaudited spawn.
var GoLifecycleAnalyzer = &Analyzer{
	Name:         "golifecycle",
	Doc:          "flags fire-and-forget goroutines reachable from serving roots (no join, cancellation, or channel signal)",
	Run:          runGoLifecycle,
	WholeProgram: true,
}

func runGoLifecycle(pass *Pass) error {
	graph := pass.Prog.graph(pass.Config)
	reached, rootOf, err := graph.reachable(pass.Config.GoLifecycleRoots)
	if err != nil {
		return err
	}
	detached := map[string]bool{}
	for _, name := range pass.Config.DetachedGoroutines {
		detached[name] = true
	}
	for _, node := range reached {
		checkGoLifecycle(pass, graph, node, rootOf[node], detached)
	}
	return nil
}

func checkGoLifecycle(pass *Pass, graph *callGraph, node *funcNode, root string, detached map[string]bool) {
	info := node.pkg.Info
	fname := QualifiedName(node.fn)
	if detached[fname] {
		return
	}
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		var body *ast.BlockStmt
		var calleeName string
		if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
			body = lit.Body
		} else if fn := calleeOf(info, g.Call); fn != nil {
			calleeName = QualifiedName(fn)
			if detached[calleeName] {
				return true
			}
			if callee := graph.nodes[fn]; callee != nil {
				body = callee.decl.Body
			}
		}
		if body == nil {
			pass.Reportf(g.Pos(),
				"go statement in %s (reachable from lifecycle root %s) spawns a statically unresolvable function: the goroutine's lifecycle cannot be audited — spawn a named function or literal, or register the spawner in Config.DetachedGoroutines",
				fname, root)
			return true
		}
		if hasLifecycleEdge(info, body) {
			return true
		}
		what := "goroutine"
		if calleeName != "" {
			what = "goroutine running " + calleeName
		}
		pass.Reportf(g.Pos(),
			"%s spawned in %s (reachable from lifecycle root %s) has no join or cancellation edge — no WaitGroup.Done, no context.Context reference, no channel signal: it outlives every shutdown path; add an edge or register it in the audited Config.DetachedGoroutines allowlist",
			what, fname, root)
		return true
	})
}

// hasLifecycleEdge reports whether a goroutine body carries any of the
// accepted join/cancel/signal edges.
func hasLifecycleEdge(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch s := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if s.Op == token.ARROW {
				found = true
			}
		case *ast.SelectStmt:
			found = true
		case *ast.RangeStmt:
			if t := info.TypeOf(s.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.Ident:
			if obj := info.Uses[s]; obj != nil && isContextType(obj.Type()) {
				found = true
			}
		case *ast.CallExpr:
			if fn := calleeOf(info, s); fn != nil {
				switch QualifiedName(fn) {
				case "(sync.WaitGroup).Done", "(sync.WaitGroup).Wait":
					found = true
				}
			}
			if fun, ok := ast.Unparen(s.Fun).(*ast.Ident); ok && fun.Name == "close" {
				if _, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
