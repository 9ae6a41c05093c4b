package dsgl

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the declarations outside perfbench/ that no entry
// point reaches and that stay anyway: oracles that tests of live code
// compare against, and hooks those tests read or set. Keys are
// "<import path>.<Name>" or "<import path>.<Type>.<Method>".
var reachAllowlist = map[string]string{
	"dsgl/internal/alloctest.Count":                 "test helper: exact allocation counts for the zero-allocation tests",
	"dsgl/internal/alloctest.SkipUnderRace":         "test helper: skips exact allocation counts under -race",
	"dsgl/internal/alloctest.callName":              "backs alloctest.Count",
	"dsgl/internal/alloctest.counted":               "backs alloctest.Count",
	"dsgl/internal/alloctest.passesThroughCall":     "backs alloctest.Count",
	"dsgl/internal/alloctest.profileRuns":           "backs alloctest.Count",
	"dsgl/internal/alloctest.raceBuild":             "backs alloctest.SkipUnderRace",
	"dsgl/internal/community.Partition.Modularity":  "oracle: the Louvain tests check modularity against it",
	"dsgl/internal/engine.BestEnergyTrace.Observer": "test hook: the opt tests record best energies per step",
	"dsgl/internal/engine.Engine.PlanCacheLen":      "test hook: the plan-cache tests read residency",
	"dsgl/internal/engine.InferState.Result":        "test hook: the batch tests check arena reuse",
	"dsgl/internal/engine.SolveState.SetObserver":   "test hook: the solver tests observe every sweep",
	"dsgl/internal/engine.planCache.resident":       "backs the PlanCacheLen hook",
	"dsgl/internal/ising.XYEnergy":                  "oracle: the OIM gradient test differentiates it",
	"dsgl/internal/mat.Bool.Count":                  "test hook: mask and snapshot tests count allowed couplings",
	"dsgl/internal/mat.CSR.At":                      "oracle: the CSR builder tests read entries through it",
	"dsgl/internal/mat.CSR.SplitCols":               "oracle: TestSplitRowPlanMatchesSplitCols compares the clamp split against it",
	"dsgl/internal/mat.Dense.Equal":                 "oracle: ridge, compilation and round-trip tests compare matrices with it",
	"dsgl/internal/metrics.Accumulator.N":           "test hook: the accumulator tests check the pair count",
	"dsgl/internal/metrics.MAE":                     "oracle: TestAccumulatorMatchesBatch compares against it",
	"dsgl/internal/metrics.MAPE":                    "oracle: TestAccumulatorMatchesBatch compares against it",
	"dsgl/internal/metrics.MAPEWithCoverage":        "oracle: TestAccumulatorMatchesBatch compares against it",
	"dsgl/internal/obs.SetDefault":                  "test hook: tests install a fresh default registry",
	"dsgl/internal/obs.Summary.Quantile":            "test hook: the P² summary tests read quantiles",
	"dsgl/internal/rng.RNG.Perm":                    "test hook: benchmarks shuffle windows with it",
	"dsgl/internal/serve.Server.Draining":           "test hook: the drain tests",
	"dsgl/internal/serve.Server.QueueDepth":         "test hook: the admission tests wait on queue depth",
	"dsgl/internal/tensor.FromData":                 "test hook: tensor and GNN tests build inputs",
	"dsgl/internal/tensor.SumScalar":                "test hook: the gradient checks reduce to a scalar loss",
	"dsgl/internal/tensor.Tensor.At":                "test hook: tensor and GNN tests read elements",
	"dsgl/internal/tensor.Tensor.RequiresGrad":      "test hook: the tensor tests check gradient tracking",
	"dsgl/internal/train.Loss":                      "oracle: TestFitReducesLoss",
}

// modulePath is the root module's path; perfbench/ is a nested module whose
// path is modulePath + "/perfbench", so every package's import path is
// modulePath joined with its directory.
const modulePath = "dsgl"

// TestEveryDeclarationReachable type-checks every non-test package of the
// module, perfbench/ included, and fails on each package-level function,
// method, type, const or var that no entry point reaches and the allowlist
// does not name. The entry points are every main and init, every
// package-level var initializer, the root package's exported API, all of
// perfbench/, and every method that implements a method of an interface
// the program can see. An allowlist entry that is reached, or no longer
// declared, fails too.
func TestEveryDeclarationReachable(t *testing.T) {
	prog, err := loadProgram(".")
	if err != nil {
		t.Fatal(err)
	}
	reached := prog.reach()
	declared := map[string]bool{}
	var failures []string
	for _, d := range prog.decls {
		declared[d.key] = true
		_, allowed := reachAllowlist[d.key]
		switch {
		case reached[d.obj] && allowed:
			failures = append(failures, fmt.Sprintf("%s is reachable now; drop it from reachAllowlist", d.key))
		case !reached[d.obj] && !allowed:
			failures = append(failures, fmt.Sprintf("%s (%s, %d lines) is reached only by tests; delete it or add it to reachAllowlist with a reason", d.key, d.pos, d.lines))
		}
	}
	for key := range reachAllowlist {
		if !declared[key] {
			failures = append(failures, fmt.Sprintf("%s is in reachAllowlist but no longer declared", key))
		}
	}
	sort.Strings(failures)
	for _, f := range failures {
		t.Error(f)
	}
}

// program is the type-checked module plus the declaration graph the
// reachability scan walks.
type program struct {
	decls []*decl
	edges map[types.Object][]types.Object
	roots []types.Object
	// ifaceMethods indexes the methods of every interface the program can
	// see by name.
	ifaceMethods map[string][]*types.Func
}

// decl is one package-level declaration outside perfbench/: a function,
// method, type, const or var.
type decl struct {
	obj   types.Object
	key   string
	pos   string
	lines int
}

type sourcePkg struct {
	dir   string // relative to the module root
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loadProgram parses and type-checks the packages under root. go/build
// picks each package's files, so build constraints (such as a race tag)
// choose between alternatives exactly as a plain build does.
func loadProgram(root string) (*program, error) {
	fset := token.NewFileSet()
	pkgs := map[string]*sourcePkg{}
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		name := e.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		sp := &sourcePkg{dir: filepath.ToSlash(rel), path: modulePath}
		if sp.dir != "." {
			sp.path += "/" + sp.dir
		}
		for _, f := range bp.GoFiles {
			af, err := parser.ParseFile(fset, filepath.Join(path, f), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			sp.files = append(sp.files, af)
		}
		pkgs[sp.path] = sp
		return nil
	})
	if err != nil {
		return nil, err
	}

	imp := &moduleImporter{fset: fset, local: pkgs, std: importer.Default()}
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := imp.Import(p); err != nil {
			return nil, err
		}
	}

	prog := &program{edges: map[types.Object][]types.Object{}, ifaceMethods: interfaceMethods(pkgs)}
	for _, p := range paths {
		prog.addPackage(fset, pkgs[p])
	}
	return prog, nil
}

// moduleImporter type-checks module packages from source and reads every
// other package from the export data the go command keeps.
type moduleImporter struct {
	fset  *token.FileSet
	local map[string]*sourcePkg
	std   types.Importer
}

// Import type-checks a module package after its module imports, once.
func (m *moduleImporter) Import(path string) (*types.Package, error) {
	sp := m.local[path]
	if sp == nil {
		return m.std.Import(path)
	}
	if sp.pkg != nil {
		return sp.pkg, nil
	}
	sp.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, sp.files, sp.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	sp.pkg = pkg
	return pkg, nil
}

// interfaceMethods indexes by name the methods of every interface the
// program can see: error, each interface type declared in or imported
// (transitively) by a module package, and each interface literal in module
// code.
func interfaceMethods(pkgs map[string]*sourcePkg) map[string][]*types.Func {
	methods := map[string][]*types.Func{}
	add := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			methods[m.Name()] = append(methods[m.Name()], m)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					add(it)
				}
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, sp := range pkgs {
		visit(sp.pkg)
		for e, tv := range sp.info.Types {
			if _, ok := e.(*ast.InterfaceType); ok {
				add(tv.Type.Underlying().(*types.Interface))
			}
		}
	}
	return methods
}

// addPackage adds one package's declarations and their references to the
// graph, and its entry points to the roots.
func (prog *program) addPackage(fset *token.FileSet, sp *sourcePkg) {
	bench := sp.dir == "perfbench" || strings.HasPrefix(sp.dir, "perfbench/")
	add := func(obj types.Object, node ast.Node, refs []types.Object) {
		prog.edges[obj] = append(prog.edges[obj], refs...)
		if bench || sp.dir == "." && exportedAPI(obj) || prog.implementsInterface(obj) {
			prog.roots = append(prog.roots, obj)
		}
		if bench {
			return
		}
		p := fset.Position(node.Pos())
		prog.decls = append(prog.decls, &decl{
			obj:   obj,
			key:   declKey(obj),
			pos:   fmt.Sprintf("%s:%d", filepath.ToSlash(p.Filename), p.Line),
			lines: fset.Position(node.End()).Line - p.Line + 1,
		})
	}
	for _, f := range sp.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				refs := prog.uses(sp, d)
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && sp.pkg.Name() == "main") {
					prog.roots = append(prog.roots, refs...)
					continue
				}
				add(sp.info.Defs[d.Name], d, refs)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(sp.info.Defs[s.Name], s, prog.uses(sp, s))
					case *ast.ValueSpec:
						refs := prog.uses(sp, s)
						if d.Tok == token.VAR {
							prog.roots = append(prog.roots, refs...)
						}
						for _, n := range s.Names {
							if n.Name == "_" {
								continue
							}
							obj := sp.info.Defs[n]
							if named, ok := obj.Type().(*types.Named); ok {
								refs = append(refs, named.Obj())
							}
							add(obj, s, refs)
						}
					}
				}
			}
		}
	}
}

// uses lists the package-level objects and methods of module packages
// that node refers to, generic ones by their origin.
func (prog *program) uses(sp *sourcePkg, node ast.Node) []types.Object {
	var refs []types.Object
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := sp.info.Uses[id]
		if obj == nil || obj.Pkg() == nil || !inModule(obj.Pkg().Path()) {
			return true
		}
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if obj.Parent() == obj.Pkg().Scope() || isMethod(obj) {
			refs = append(refs, obj)
		}
		return true
	})
	return refs
}

func inModule(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

// implementsInterface reports whether obj is a method with the name and
// signature of a method of an interface the program can see.
func (prog *program) implementsInterface(obj types.Object) bool {
	if !isMethod(obj) {
		return false
	}
	for _, im := range prog.ifaceMethods[obj.Name()] {
		if types.Identical(obj.Type(), im.Type()) {
			return true
		}
	}
	return false
}

func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil
}

// exportedAPI reports whether obj is part of its package's exported API:
// an exported package-level object, or an exported method of an exported
// type.
func exportedAPI(obj types.Object) bool {
	if !obj.Exported() {
		return false
	}
	if !isMethod(obj) {
		return true
	}
	return token.IsExported(recvName(obj.(*types.Func)))
}

func recvName(fn *types.Func) string {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func declKey(obj types.Object) string {
	if isMethod(obj) {
		return obj.Pkg().Path() + "." + recvName(obj.(*types.Func)) + "." + obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// reach returns every object a root reaches through the reference graph.
func (prog *program) reach() map[types.Object]bool {
	reached := map[types.Object]bool{}
	stack := append([]types.Object(nil), prog.roots...)
	for len(stack) > 0 {
		obj := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reached[obj] {
			continue
		}
		reached[obj] = true
		stack = append(stack, prog.edges[obj]...)
	}
	return reached
}
