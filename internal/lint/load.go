package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, parsed, and type-checked package of the module
// under analysis.
type Package struct {
	// Path is the import path ("repro/internal/aig"). Fixture packages
	// under testdata get a path derived the same way; nothing imports
	// them, so the path is only used for reporting.
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is a fully loaded module slice: every requested package plus
// every module-internal dependency, type-checked against the standard
// library (compiled from source, so the loader works offline with no
// dependency beyond the Go toolchain's GOROOT).
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleDir  string
	// Packages holds the explicitly requested packages in a stable
	// (path-sorted) order. Dependencies pulled in only transitively are
	// reachable through the type information but are not analyzed.
	Packages []*Package

	byPath  map[string]*Package
	ignores map[string]map[int]*ignoreDirective // file -> line -> directive

	// graphs memoizes the summarized call graph per configuration, so
	// concurrently running analyzers share one build (the graph and its
	// summaries are immutable once constructed).
	graphMu sync.Mutex
	graphs  map[*Config]*callGraph
}

// graph returns the program's summarized call graph for cfg, building
// it on first use. Safe for concurrent analyzers.
func (p *Program) graph(cfg *Config) *callGraph {
	p.graphMu.Lock()
	defer p.graphMu.Unlock()
	if p.graphs == nil {
		p.graphs = map[*Config]*callGraph{}
	}
	if g, ok := p.graphs[cfg]; ok {
		return g
	}
	g := buildCallGraph(p, cfg)
	p.graphs[cfg] = g
	return g
}

// loader resolves imports: module-internal paths from the module tree,
// everything else from GOROOT source via the stdlib source importer.
type loader struct {
	fset    *token.FileSet
	modPath string
	modDir  string
	std     types.Importer
	memo    map[string]*Package
	loading map[string]bool
}

// Load parses and type-checks the packages matched by patterns. dir must
// be inside a Go module. Patterns accept "./..." (every package under
// the module root, skipping testdata and hidden directories), "..."
// (same), and plain directory paths relative to dir.
func Load(dir string, patterns []string) (*Program, error) {
	modDir, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:    token.NewFileSet(),
		modPath: modPath,
		modDir:  modDir,
		memo:    map[string]*Package{},
		loading: map[string]bool{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)

	dirs, err := expandPatterns(dir, modDir, patterns)
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Fset:       l.fset,
		ModulePath: modPath,
		ModuleDir:  modDir,
		byPath:     map[string]*Package{},
		ignores:    map[string]map[int]*ignoreDirective{},
	}
	for _, d := range dirs {
		pkg, err := l.loadDir(d)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue // no non-test Go files
		}
		if prog.byPath[pkg.Path] == nil {
			prog.byPath[pkg.Path] = pkg
			prog.Packages = append(prog.Packages, pkg)
		}
	}
	sort.Slice(prog.Packages, func(i, j int) bool { return prog.Packages[i].Path < prog.Packages[j].Path })
	for _, pkg := range prog.Packages {
		prog.collectIgnores(pkg)
	}
	return prog, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module directory and module path.
func findModule(dir string) (modDir, modPath string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// expandPatterns resolves the command-line package patterns to a sorted
// list of directories containing Go files.
func expandPatterns(dir, modDir string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var out []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if err := walkGoDirs(modDir, add); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			root := filepath.Join(dir, strings.TrimSuffix(pat, "/..."))
			if err := walkGoDirs(root, add); err != nil {
				return nil, err
			}
		default:
			d := pat
			if !filepath.IsAbs(d) {
				d = filepath.Join(dir, d)
			}
			if fi, err := os.Stat(d); err != nil || !fi.IsDir() {
				return nil, fmt.Errorf("lint: %s is not a package directory", pat)
			}
			add(d)
		}
	}
	sort.Strings(out)
	return out, nil
}

// walkGoDirs calls add for every directory under root that contains at
// least one non-test Go file, skipping hidden and testdata trees.
func walkGoDirs(root string, add func(string)) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if isLintedGoFile(e.Name()) {
				add(path)
				break
			}
		}
		return nil
	})
}

// isLintedGoFile reports whether name is a Go source file the linter
// analyzes. Test files are excluded: the invariants guarded here are
// production-path properties, and test packages routinely use intentional
// nondeterminism (t.TempDir, shuffled inputs) that would drown real
// findings.
func isLintedGoFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".")
}

// importPathFor maps a module-tree directory to its import path.
func (l *loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.modDir, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.modDir)
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// loadDir parses and type-checks the package in dir (nil if the
// directory has no non-test Go files).
func (l *loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.memo[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !isLintedGoFile(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		l.memo[path] = nil
		return nil, nil
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.memo[path] = pkg
	return pkg, nil
}

// Import implements types.Importer: module-internal packages come from
// the module tree, everything else from GOROOT source.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "C" {
		return nil, fmt.Errorf("lint: cgo is not supported")
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		dir := filepath.Join(l.modDir, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")))
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no Go files in %s", dir)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
