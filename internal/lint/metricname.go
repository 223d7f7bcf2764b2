package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
)

// MetricNameAnalyzer keeps the telemetry registry's name space stable.
// Metric names are the registry's primary key: a name built with
// fmt.Sprintf (or any non-constant expression) can mint unbounded new
// time series (cardinality drift), breaks dashboard queries, and makes
// the Prometheus/JSON exposition diff noisy. Names must be compile-time
// constants in snake_case segments separated by '/'
// ("harness/specs_done"). Passing a bare identifier through a helper is
// allowed — the helper's own call sites are checked instead; sanctioned
// dynamic-name wrappers over a fixed name set carry a //lint:ignore
// with their bound.
var MetricNameAnalyzer = &Analyzer{
	Name: "metricname",
	Doc:  "flags dynamically built or non-snake_case telemetry metric names",
	Run:  runMetricName,
}

func runMetricName(pass *Pass) error {
	pattern, err := regexp.Compile(pass.Config.MetricNamePattern)
	if err != nil {
		return err
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(pass.Pkg.Info, call)
			if fn == nil {
				return true
			}
			for _, argIdx := range pass.Config.MetricNameFuncs[QualifiedName(fn)] {
				if argIdx < len(call.Args) {
					checkMetricName(pass, pattern, fn, ast.Unparen(call.Args[argIdx]))
				}
			}
			return true
		})
	}
	return nil
}

// checkMetricName reports a metric-name argument of fn that is not a
// snake_case constant.
func checkMetricName(pass *Pass, pattern *regexp.Regexp, fn *types.Func, arg ast.Expr) {
	tv, ok := pass.Pkg.Info.Types[arg]
	if ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		name := constant.StringVal(tv.Value)
		if !pattern.MatchString(name) {
			pass.Reportf(arg.Pos(),
				"metric name %q violates the registry convention (snake_case segments, %s)",
				name, pass.Config.MetricNamePattern)
		}
		return
	}
	// Bare identifiers and field reads are pass-through plumbing (the
	// value was named at an upstream call site that this analyzer
	// checks); only expressions that *build* a name are flagged.
	switch arg.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return
	}
	pass.Reportf(arg.Pos(),
		"metric name passed to %s is built dynamically: dynamic names mint unbounded time series (cardinality drift); use a constant name or suppress with //lint:ignore stating the bound",
		QualifiedName(fn))
}
