package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeterminismAnalyzer guards the repository's byte-identity surface:
// checkpoint/resume replay, results_pairs.csv, the ROD/correlation
// tables (Eq. 1, Table 2 of the paper), and AIGER serialization must
// reproduce bit for bit given the same config. Inside any function
// statically reachable from a configured emission root it flags
//
//   - iteration over a Go map whose body is order-sensitive (anything
//     beyond collecting keys, writing other maps, or commutative
//     integer accumulation — float accumulation is order-sensitive),
//   - time.Now / time.Since (wall-clock leaks into results), and
//   - the global math/rand source (unseeded, process-global state).
//
// The analysis crosses `go`-statement boundaries: a goroutine spawned
// inside a determinism root (a `go func() {...}()` literal or a
// statically resolved `go helper()`) is itself a root — a parallelized
// emission path inherits the full reproducibility contract, and the
// diagnostics name the spawn so the parallel structure is visible.
//
// The call graph is static: calls through function values, struct
// fields, and interfaces are not followed, so keep emission paths free
// of such indirection or extend the root set.
var DeterminismAnalyzer = &Analyzer{
	Name:         "determinism",
	Doc:          "flags map-order iteration, wall-clock reads, and global randomness reachable from result-emission roots",
	Run:          runDeterminism,
	WholeProgram: true,
}

func runDeterminism(pass *Pass) error {
	reached, rootOf, err := pass.Prog.graph(pass.Config).reachable(pass.Config.DeterminismRoots)
	if err != nil {
		return err
	}
	for _, node := range reached {
		checkDeterminism(pass, node, rootOf[node])
	}
	return nil
}

// checkDeterminism scans one reachable function body. Constructs inside
// a goroutine spawned here (a `go func(){...}()` literal) are reported
// with the spawn named: the goroutine is a determinism root of its own,
// so parallelizing an emission path cannot silently shed the contract.
// (`go helper()` spawns are covered by the call-graph BFS — the GoStmt's
// call is a static edge like any other.)
func checkDeterminism(pass *Pass, node *funcNode, root string) {
	info := node.pkg.Info
	baseName := QualifiedName(node.fn)

	// Ranges of function-literal bodies spawned by go statements: a
	// finding inside one is attributed to the goroutine, not just the
	// enclosing function.
	var goLits []*ast.FuncLit
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				goLits = append(goLits, lit)
			}
		}
		return true
	})
	nameAt := func(pos token.Pos) string {
		for _, lit := range goLits {
			if lit.Body.Pos() <= pos && pos <= lit.Body.End() {
				return "goroutine spawned in " + baseName
			}
		}
		return baseName
	}

	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.RangeStmt:
			if isMapType(info.TypeOf(s.X)) && !orderInsensitiveBody(info, s.Body) {
				pass.Reportf(s.Pos(),
					"map iteration over %s with an order-sensitive body in %s (reachable from emission root %s): iterate sorted keys to keep emitted results byte-identical",
					types.ExprString(s.X), nameAt(s.Pos()), root)
				return false
			}
		case *ast.CallExpr:
			if fn := calleeOf(info, s); fn != nil {
				switch q := QualifiedName(fn); q {
				case "time.Now", "time.Since":
					pass.Reportf(s.Pos(),
						"call to %s in %s (reachable from emission root %s): wall-clock values make emitted results irreproducible",
						q, nameAt(s.Pos()), root)
				default:
					if fn.Pkg() != nil && isGlobalRandFunc(fn) {
						pass.Reportf(s.Pos(),
							"call to %s in %s (reachable from emission root %s): the global math/rand source is not seeded per run; thread a seeded *rand.Rand instead",
							q, nameAt(s.Pos()), root)
					}
				}
			}
		}
		return true
	})
}

// isGlobalRandFunc reports whether fn is a top-level math/rand (or v2)
// function drawing from the process-global source. Constructors for
// seeded instances are fine.
func isGlobalRandFunc(fn *types.Func) bool {
	path := fn.Pkg().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false // methods on an explicit (seeded) source
	}
	switch fn.Name() {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		return false
	}
	return true
}

// orderInsensitiveBody reports whether a map-range body is safe under
// arbitrary iteration order: it only collects keys/values into other
// containers or accumulates commutatively.
func orderInsensitiveBody(info *types.Info, body *ast.BlockStmt) bool {
	for _, stmt := range body.List {
		if !orderInsensitiveStmt(info, stmt) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmt(info *types.Info, stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		return orderInsensitiveAssign(info, s)
	case *ast.IncDecStmt:
		return isIntegerType(info.TypeOf(s.X))
	case *ast.IfStmt:
		if s.Init != nil && !orderInsensitiveStmt(info, s.Init) {
			return false
		}
		if !orderInsensitiveBody(info, s.Body) {
			return false
		}
		if s.Else != nil {
			return orderInsensitiveStmt(info, s.Else)
		}
		return true
	case *ast.BlockStmt:
		return orderInsensitiveBody(info, s)
	case *ast.BranchStmt:
		// continue restarts the loop — safe; break/goto select an
		// arbitrary element — order-sensitive.
		return s.Tok == token.CONTINUE && s.Label == nil
	case *ast.DeclStmt:
		return true
	default:
		// Emission calls, returns/breaks (which select an arbitrary
		// element), nested loops, sends: all order-sensitive.
		return false
	}
}

// orderInsensitiveAssign accepts: new locals (:=), writes into maps or
// blanks, append-to-self slice growth (collect-then-sort idiom), and
// integer compound accumulation. Float/string accumulation is rejected:
// addition order changes the result.
func orderInsensitiveAssign(info *types.Info, s *ast.AssignStmt) bool {
	switch s.Tok {
	case token.DEFINE:
		return true
	case token.ASSIGN:
		for i, lhs := range s.Lhs {
			if ident, ok := lhs.(*ast.Ident); ok && ident.Name == "_" {
				continue
			}
			if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapType(info.TypeOf(idx.X)) {
				continue
			}
			if len(s.Lhs) == len(s.Rhs) && isAppendToSelf(info, lhs, s.Rhs[i]) {
				continue
			}
			return false
		}
		return true
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN,
		token.XOR_ASSIGN, token.MUL_ASSIGN:
		return len(s.Lhs) == 1 && isIntegerType(info.TypeOf(s.Lhs[0]))
	default:
		return false
	}
}

// isAppendToSelf matches "x = append(x, ...)".
func isAppendToSelf(info *types.Info, lhs, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "append" {
		return false
	}
	if obj := info.Uses[fun]; obj != nil {
		if _, isBuiltin := obj.(*types.Builtin); !isBuiltin {
			return false
		}
	}
	return types.ExprString(lhs) == types.ExprString(call.Args[0])
}
