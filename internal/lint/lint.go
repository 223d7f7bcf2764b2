// Package lint is a self-contained static-analysis driver for the
// repository's domain invariants: AIG-literal encoding discipline,
// deterministic result emission, error-handling hygiene, and telemetry
// metric-name stability. It is built on nothing but the standard
// library (go/parser, go/ast, go/types with the source importer), so it
// runs offline with no dependency beyond the Go toolchain.
//
// Findings can be suppressed at a single line with a directive comment:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed on the offending line or the line directly above it. The
// analyzer list may be "all"; the reason is mandatory — a bare ignore
// is itself reported as a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Analyzer is one named check over a loaded program.
type Analyzer struct {
	Name string
	Doc  string
	// Run reports findings through pass.Reportf. Per-package analyzers
	// are invoked once per requested package; whole-program analyzers
	// (WholeProgram true) are invoked once with Pass.Pkg nil and inspect
	// Pass.Prog.Packages themselves (needed for cross-package
	// reachability).
	Run          func(pass *Pass) error
	WholeProgram bool
}

// Pass carries one analyzer invocation's inputs and its diagnostic sink.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package // nil for whole-program analyzers
	Config   *Config

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Prog.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// posString renders a source position for use inside diagnostic
// messages, relative to the module root so messages (and the golden
// files pinning them) stay stable across checkouts.
func (p *Pass) posString(pos token.Pos) string {
	position := p.Prog.Fset.Position(pos)
	if rel, err := filepath.Rel(p.Prog.ModuleDir, position.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		position.Filename = filepath.ToSlash(rel)
	}
	return position.String()
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzers map[string]bool // nil means "all"
	reason    string
	pos       token.Pos
	used      bool
}

// collectIgnores parses every //lint:ignore directive in pkg, keyed by
// file and line so a directive suppresses findings on its own line and
// the line below it.
func (p *Program) collectIgnores(pkg *Package) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				byLine := p.ignores[pos.Filename]
				if byLine == nil {
					byLine = map[int]*ignoreDirective{}
					p.ignores[pos.Filename] = byLine
				}
				d := &ignoreDirective{pos: c.Pos()}
				fields := strings.Fields(text)
				if len(fields) >= 1 {
					if fields[0] != "all" {
						d.analyzers = map[string]bool{}
						for _, a := range strings.Split(fields[0], ",") {
							d.analyzers[a] = true
						}
					}
					d.reason = strings.Join(fields[1:], " ")
				}
				byLine[pos.Line] = d
			}
		}
	}
}

// suppressedBy returns the directive covering a diagnostic, or nil.
func (p *Program) suppressedBy(d Diagnostic) *ignoreDirective {
	byLine := p.ignores[d.Pos.Filename]
	if byLine == nil {
		return nil
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		if dir := byLine[line]; dir != nil {
			if dir.analyzers == nil || dir.analyzers[d.Analyzer] {
				return dir
			}
		}
	}
	return nil
}

// Result summarizes one lint run.
type Result struct {
	Diagnostics []Diagnostic // surviving findings, position-sorted
	Suppressed  int          // findings silenced by //lint:ignore
	// SuppressedDiagnostics holds the silenced findings themselves
	// (position-sorted), so -json output and audits can list what the
	// directives are actually covering.
	SuppressedDiagnostics []Diagnostic
	// Timings holds per-analyzer wall-clock, in the order the analyzers
	// were requested (the analyzers run concurrently; the durations sum
	// to more than the run's elapsed time).
	Timings []AnalyzerTiming
}

// AnalyzerTiming is one analyzer's wall-clock cost over the program.
type AnalyzerTiming struct {
	Name    string
	Elapsed time.Duration
}

// RunAnalyzers runs every analyzer over the program and returns the
// surviving (unsuppressed) diagnostics in position order. Malformed
// ignore directives (no analyzer list or no reason) are themselves
// diagnostics, so suppressions stay auditable.
//
// The analyzers run concurrently: the loaded Program is immutable once
// analysis starts (the shared call graph and summaries are memoized per
// config behind a mutex), and each analyzer writes into its own
// diagnostic slice, merged deterministically afterwards.
func RunAnalyzers(prog *Program, analyzers []*Analyzer, cfg *Config) (*Result, error) {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	diags := make([][]Diagnostic, len(analyzers))
	errs := make([]error, len(analyzers))
	timings := make([]AnalyzerTiming, len(analyzers))
	var wg sync.WaitGroup
	for i, a := range analyzers {
		wg.Add(1)
		go func(i int, a *Analyzer) {
			defer wg.Done()
			start := time.Now()
			pass := &Pass{Analyzer: a, Prog: prog, Config: cfg, diags: &diags[i]}
			if a.WholeProgram {
				if err := a.Run(pass); err != nil {
					errs[i] = fmt.Errorf("lint: %s: %w", a.Name, err)
				}
			} else {
				for _, pkg := range prog.Packages {
					pass.Pkg = pkg
					if err := a.Run(pass); err != nil {
						errs[i] = fmt.Errorf("lint: %s (%s): %w", a.Name, pkg.Path, err)
						break
					}
				}
			}
			timings[i] = AnalyzerTiming{Name: a.Name, Elapsed: time.Since(start)}
		}(i, a)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var raw []Diagnostic
	for _, d := range diags {
		raw = append(raw, d...)
	}
	res := &Result{Timings: timings}
	for _, d := range raw {
		if dir := prog.suppressedBy(d); dir != nil {
			dir.used = true
			res.Suppressed++
			res.SuppressedDiagnostics = append(res.SuppressedDiagnostics, d)
			continue
		}
		res.Diagnostics = append(res.Diagnostics, d)
	}
	for file, byLine := range prog.ignores {
		for _, dir := range byLine {
			if dir.reason == "" {
				res.Diagnostics = append(res.Diagnostics, Diagnostic{
					Pos:      prog.Fset.Position(dir.pos),
					Analyzer: "ignore",
					Message:  "malformed //lint:ignore: want \"//lint:ignore <analyzer> <reason>\"",
				})
			}
		}
		_ = file
	}
	sortDiagnostics(res.Diagnostics)
	sortDiagnostics(res.SuppressedDiagnostics)
	return res, nil
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Analyzers returns every registered analyzer in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		RawLitAnalyzer, DeterminismAnalyzer, DroppedErrAnalyzer, MetricNameAnalyzer,
		HTTPWriteAnalyzer, FaultPointAnalyzer,
		LockHeldAnalyzer, CtxFlowAnalyzer, GoLifecycleAnalyzer, AtomicMixAnalyzer,
	}
}

// AnalyzerByName returns a registered analyzer, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// --- shared type/function helpers -------------------------------------

// QualifiedName renders a *types.Func the way configuration refers to
// it: "pkg/path.Func" for package functions and "(pkg/path.Recv).Method"
// for methods (pointer receivers are normalized to the bare type name).
func QualifiedName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed && named.Obj().Pkg() != nil {
			return "(" + named.Obj().Pkg().Path() + "." + named.Obj().Name() + ")." + fn.Name()
		}
		return fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

// calleeOf resolves a call expression to the static *types.Func it
// invokes, or nil for calls through function values, interfaces, or
// built-ins.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	fun := ast.Unparen(call.Fun)
	// An explicit instantiation f[T](...) calls the generic f.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// isMapType reports whether t's core type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isIntegerType reports whether t is an integer kind (ordering-
// insensitive under accumulation, unlike floats and strings).
func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
