// Package load type-checks the packages of a Go module using nothing
// but the standard library, producing the inputs an analysis Pass
// needs (files, types, type info).
//
// The repo builds hermetically offline, so the loader cannot shell out
// to a module proxy or depend on golang.org/x/tools/go/packages.
// Instead it resolves imports itself: paths inside the module are
// type-checked from source recursively, and standard-library paths go
// through go/importer's source importer (which reads GOROOT sources —
// always present, since the toolchain ships them). go/build selects
// files per build constraints, so platform-gated packages like
// internal/tcpinfo load the same file set the compiler would.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the module.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the directory holding its sources.
	Dir string
	// Fset is the loader's shared file set.
	Fset *token.FileSet
	// Files are the parsed (non-test, constraint-selected) sources,
	// sorted by file name.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds resolution results for Files.
	Info *types.Info
	// Errors are type-checking problems. Analyzers need sound types, so
	// drivers should refuse to report findings for packages with errors.
	Errors []error
}

// Loader loads packages of a single module, caching by import path.
type Loader struct {
	// Fset is shared by every package the loader touches.
	Fset *token.FileSet
	// ModuleDir is the directory containing go.mod.
	ModuleDir string
	// ModulePath is the module's declared path.
	ModulePath string

	std  types.Importer
	pkgs map[string]*Package
	// loading guards against import cycles (which would otherwise
	// recurse forever); a cycle is reported as an error.
	loading map[string]bool
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// NewLoader returns a loader for the module rooted at moduleDir.
func NewLoader(moduleDir string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleDir:  moduleDir,
		ModulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module declaration", gomod)
}

// LoadAll discovers and type-checks every package in the module,
// skipping testdata, vendor, and hidden directories. Results are
// sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var out []*Package
	err := filepath.WalkDir(l.ModuleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleDir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		// A nested module is its own world; don't mix its packages in.
		if path != l.ModuleDir {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.ImportDir(path, 0)
		if err != nil {
			return nil // no buildable Go files here
		}
		if len(bp.GoFiles) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleDir, path)
		if err != nil {
			return err
		}
		ip := l.ModulePath
		if rel != "." {
			ip = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.Load(ip)
		if err != nil {
			return fmt.Errorf("loading %s: %w", ip, err)
		}
		out = append(out, pkg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Load type-checks the module package with the given import path.
func (l *Loader) Load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.ModulePath), "/")
	dir := filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
	return l.LoadDir(dir, importPath)
}

// LoadDir type-checks the sources in dir under the given import path.
// dir need not live inside the module tree (analysistest fixtures use
// this), but its imports of module packages resolve against the
// loader's module.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	// bp.GoFiles excludes _test.go files: this is the one place the
	// suite's test-file exemption lives (tests may use wall clocks,
	// ad-hoc RNGs and discarded closes freely), so no analyzer checks.
	files := make([]*ast.File, 0, len(bp.GoFiles))
	sorted := append([]string(nil), bp.GoFiles...)
	sort.Strings(sorted)
	for _, name := range sorted {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	pkg := &Package{Path: importPath, Dir: dir, Fset: l.Fset}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) { return l.importPkg(p) }),
		Error:    func(err error) { pkg.Errors = append(pkg.Errors, err) },
	}
	tpkg, _ := conf.Check(importPath, l.Fset, files, info)
	pkg.Files = files
	pkg.Types = tpkg
	pkg.Info = info
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// importPkg resolves one import: module-internal paths recurse through
// the loader; everything else is treated as standard library.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "C" {
		return nil, fmt.Errorf("cgo is not supported")
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		if len(p.Errors) > 0 {
			return nil, fmt.Errorf("package %s has type errors: %v", path, p.Errors[0])
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
