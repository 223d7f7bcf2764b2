package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"regexp"
	"sort"
)

// FaultPointAnalyzer keeps the fault-injection registry's name space
// stable and collision-free. Point names are the contract between
// instrumented code and chaos schedules (AIG_FAULTS specs, the chaos
// test suite): a name built at runtime cannot be armed
// deterministically, a misspelled pattern silently never fires, and
// two instrumentation sites sharing one name make a schedule ambiguous
// — arming "the checkpoint write" would secretly also tear some other
// subsystem. So every name passed to faultinject.Hit/HitCtx/WrapWriter
// must be a compile-time string constant in snake_case '/'-separated
// segments, and each name must designate exactly one instrumentation
// site across the whole program. Pass-through helpers inside
// faultinject itself are exempt; routing one point through a shared
// constructor (see harness.newCheckpointer) is the sanctioned way to
// cover multiple code paths with one site.
var FaultPointAnalyzer = &Analyzer{
	Name:         "faultpoint",
	Doc:          "flags dynamic, malformed, or duplicated fault-injection point names",
	Run:          runFaultPoint,
	WholeProgram: true,
}

func runFaultPoint(pass *Pass) error {
	pattern, err := regexp.Compile(pass.Config.FaultPointPattern)
	if err != nil {
		return err
	}
	sites := map[string][]token.Pos{}
	for _, pkg := range pass.Prog.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeOf(pkg.Info, call)
				if fn == nil {
					return true
				}
				argIdx, ok := pass.Config.FaultPointFuncs[QualifiedName(fn)]
				if !ok || argIdx >= len(call.Args) {
					return true
				}
				// The defining package's own internals (spec parsing, the
				// hit path) forward names they received; their callers are
				// the sites under contract.
				if fn.Pkg() != nil && fn.Pkg().Path() == pkg.Path {
					return true
				}
				arg := ast.Unparen(call.Args[argIdx])
				tv, ok := pkg.Info.Types[arg]
				if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
					pass.Reportf(arg.Pos(),
						"fault point name passed to %s is not a compile-time string constant: dynamic names cannot be armed deterministically from a fault spec",
						QualifiedName(fn))
					return true
				}
				name := constant.StringVal(tv.Value)
				if !pattern.MatchString(name) {
					pass.Reportf(arg.Pos(),
						"fault point name %q violates the registry convention (snake_case segments, %s)",
						name, pass.Config.FaultPointPattern)
					return true
				}
				sites[name] = append(sites[name], arg.Pos())
				return true
			})
		}
	}
	names := make([]string, 0, len(sites))
	for name := range sites {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if len(sites[name]) < 2 {
			continue
		}
		for _, pos := range sites[name] {
			pass.Reportf(pos,
				"fault point name %q is instrumented at %d call sites; one name must designate exactly one site (route shared paths through a single constructor, or split the names)",
				name, len(sites[name]))
		}
	}
	return nil
}
