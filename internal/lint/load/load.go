// Package load turns `go list` package patterns into typechecked syntax
// trees for the lint analyzers. It is the stdlib replacement for
// golang.org/x/tools/go/packages (unavailable offline — see internal/lint/analysis):
// one `go list -deps -json -export` invocation yields every package with its
// build-cache export data; module packages are then parsed and typechecked
// from source in dependency order (so analyzers see syntax and doc comments),
// while standard-library dependencies are imported from their compiled
// export data through go/importer.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one source-loaded module package.
type Package struct {
	PkgPath   string
	Dir       string
	Target    bool // named by the load patterns (vs pulled in as a dependency)
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Program is the full set of loaded packages.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package // dependency order
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	Error      *struct{ Err string }
}

// Load lists patterns (relative to dir) and typechecks every non-standard
// package from source. Patterns follow `go list` syntax; explicit directory
// arguments may point inside testdata trees, which is how the analysistest
// harness loads its fixture packages.
func Load(dir string, patterns ...string) (*Program, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=Dir,ImportPath,Name,Export,Standard,DepOnly,GoFiles,CgoFiles,Imports,Error",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string) // import path -> export data file
	var mod []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard {
			q := p
			mod = append(mod, &q)
		}
	}

	prog := &Program{Fset: token.NewFileSet()}
	imp := &progImporter{
		gc:  importer.ForCompiler(prog.Fset, "gc", lookupIn(exports)),
		mod: make(map[string]*types.Package),
	}
	sizes := types.SizesFor("gc", runtime.GOARCH)

	// `go list -deps` emits dependencies before dependents, so one forward
	// pass typechecks every package with its module deps already resolved.
	for _, lp := range mod {
		if len(lp.CgoFiles) > 0 {
			return nil, fmt.Errorf("package %s uses cgo, which the lint loader does not support", lp.ImportPath)
		}
		pkg := &Package{PkgPath: lp.ImportPath, Dir: lp.Dir, Target: !lp.DepOnly}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(prog.Fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			pkg.Syntax = append(pkg.Syntax, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Instances:  make(map[*ast.Ident]types.Instance),
		}
		conf := types.Config{Importer: imp, Sizes: sizes}
		tpkg, err := conf.Check(lp.ImportPath, prog.Fset, pkg.Syntax, info)
		if err != nil {
			return nil, fmt.Errorf("typechecking %s: %v", lp.ImportPath, err)
		}
		pkg.Types, pkg.TypesInfo = tpkg, info
		imp.mod[lp.ImportPath] = tpkg
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}

// Targets returns the packages named by the load patterns (the ones to
// analyze), excluding dependency-only loads.
func (p *Program) Targets() []*Package {
	var out []*Package
	for _, pkg := range p.Packages {
		if pkg.Target {
			out = append(out, pkg)
		}
	}
	return out
}

// progImporter resolves imports during source typechecking: module packages
// come from the already-typechecked set, everything else (the standard
// library) from compiled export data.
type progImporter struct {
	gc  types.Importer
	mod map[string]*types.Package
}

func (i *progImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := i.mod[path]; ok {
		return p, nil
	}
	return i.gc.Import(path)
}

func lookupIn(exports map[string]string) func(path string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
}
