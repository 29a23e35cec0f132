package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// faultKnobs are the methods kept for fault injection with no production
// caller (DESIGN.md §2.18): a test or a user drives the simulated network's
// latency, drops and partitions, and checks a stripe's parity, through
// them.
var faultKnobs = map[string]bool{
	"(*repro/internal/simnet.Network).SetLatency":         true,
	"(*repro/internal/simnet.Network).SetDropProbability": true,
	"(*repro/internal/simnet.Network).Partition":          true,
	"(*repro/internal/simnet.Network).Heal":               true,
	"(*repro/internal/erasure.Code).Verify":               true,
}

// TestExportedFunctionsHaveProductionCallers fails on a production name
// that only tests use: an exported top-level function, or an exported
// method of a type, under internal/, or anywhere in the module an
// unexported function or method and any top-level type, constant or
// variable. Such helpers and oracles belong in _test.go files. It
// type-checks every non-test file of the module that the default build
// compiles (an architecture's kernel file and its portable twin declare
// one name), bench/ included, and
// counts a name as used when a non-test file refers to it outside the
// name's own declaration (a method's receiver does not use its type). A
// method is exempt when its type implements an interface that has it (a
// call through the interface names the interface's method, not this
// one), as are the faultKnobs. Staticcheck's unused check (U1000) counts
// every exported name as used and does not run with the go test steps;
// this test replaces it for every top-level name and method.
func TestExportedFunctionsHaveProductionCallers(t *testing.T) {
	fset := token.NewFileSet()
	dirs := map[string][]*ast.File{} // import path -> non-test files
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); !ok {
			return err // a file the default build leaves out, such as another architecture's
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join("repro", filepath.ToSlash(filepath.Dir(p)))
		dirs[pkg] = append(dirs[pkg], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	checked := map[string]*types.Package{}
	std := importer.Default()
	var imp importerFunc
	check := func(p string) (*types.Package, error) {
		if pkg, ok := checked[p]; ok {
			return pkg, nil
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p, fset, dirs[p], info)
		checked[p] = pkg
		return pkg, err
	}
	imp = func(p string) (*types.Package, error) {
		if _, ok := dirs[p]; ok {
			return check(p)
		}
		return std.Import(p)
	}
	paths := make([]string, 0, len(dirs))
	for p := range dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := check(p); err != nil {
			t.Fatal(err)
		}
	}

	// The declarations held to the rule, where each lies, and the
	// receivers, whose mention of their type is no use of it.
	type decl struct {
		obj      types.Object
		pos, end token.Pos
	}
	var decls []decl
	receiver := map[token.Pos]bool{}
	for _, p := range paths {
		internal := strings.HasPrefix(p, "repro/internal/")
		for _, f := range dirs[p] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := info.Defs[d.Name].(*types.Func)
					var held bool
					switch {
					case d.Recv != nil:
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receiver[id.Pos()] = true
							}
							return true
						})
						held = (!d.Name.IsExported() || internal) && !faultKnobs[fn.FullName()]
					case d.Name.IsExported():
						held = internal
					default:
						held = d.Name.Name != "main" && d.Name.Name != "init"
					}
					if held {
						decls = append(decls, decl{fn, d.Pos(), d.End()})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{spec.Name}
						case *ast.ValueSpec:
							names = spec.Names
						}
						for _, id := range names {
							if id.Name != "_" {
								decls = append(decls, decl{info.Defs[id], spec.Pos(), spec.End()})
							}
						}
					}
				}
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no declarations under the rule")
	}

	// A reference inside the referenced name's own declaration is no use.
	own := map[types.Object]decl{}
	for _, d := range decls {
		own[d.obj] = d
	}
	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if d, ok := own[obj]; !ok || receiver[id.Pos()] || d.pos <= id.Pos() && id.Pos() < d.end {
			continue
		}
		used[obj] = true
	}

	ifaces := interfaces(info, checked)
	for _, d := range decls {
		fn, isFunc := d.obj.(*types.Func)
		if used[d.obj] || isFunc && implementsInterface(fn, ifaces) {
			continue
		}
		name := d.obj.Pkg().Path() + "." + d.obj.Name()
		if isFunc {
			name = fn.FullName()
		}
		t.Errorf("%s: %s has no use outside _test.go files; move it into one", fset.Position(d.pos), name)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// interfaces lists every interface with methods that the module's
// packages, or any package they import, declare or spell out, the
// predeclared error included.
func interfaces(info *types.Info, checked map[string]*types.Package) []*types.Interface {
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
					add(tn.Type())
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range checked {
		walk(p)
	}
	for _, tv := range info.Types {
		if tv.IsType() {
			add(tv.Type)
		}
	}
	return out
}

// implementsInterface reports whether fn is a method whose receiver type,
// or a pointer to it, implements an interface that has fn's name.
func implementsInterface(fn *types.Func, ifaces []*types.Interface) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != fn.Name() {
				continue
			}
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
	}
	return false
}
