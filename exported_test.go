package repro

import (
	"go/ast"
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
// caller (DESIGN.md §5): a test or a user drives the simulated network's
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
// that only tests call: an exported top-level function under internal/,
// an exported method of a type under internal/, or an unexported
// top-level function anywhere in the module. Such helpers and oracles
// belong in _test.go files. It type-checks every non-test file of the
// module, bench/ included, and counts a name as called when a non-test
// file refers to it outside the name's own body. A method is exempt when
// its type implements an interface that has it (a call through the
// interface names the interface's method, not this one), as are the
// faultKnobs. For functions this test replaces staticcheck's unused check
// (U1000), which counts every exported name as used and does not run with
// the go test steps; U1000 keeps unexported methods, types and variables.
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

	// The declarations held to the rule, and where each body lies.
	type decl struct {
		fn       *types.Func
		pos, end token.Pos
	}
	var decls []decl
	for _, p := range paths {
		internal := strings.HasPrefix(p, "repro/internal/")
		for _, f := range dirs[p] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				var held bool
				switch {
				case fd.Recv != nil:
					held = fd.Name.IsExported() && internal && !faultKnobs[fn.FullName()]
				case fd.Name.IsExported():
					held = internal
				default:
					held = fd.Name.Name != "main" && fd.Name.Name != "init"
				}
				if held {
					decls = append(decls, decl{fn, fd.Pos(), fd.End()})
				}
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no declarations under the rule")
	}

	// A reference inside the referenced function's own body is no caller.
	body := map[*types.Func]decl{}
	for _, d := range decls {
		body[d.fn] = d
	}
	used := map[*types.Func]bool{}
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if d, ok := body[fn]; ok && d.pos <= id.Pos() && id.Pos() < d.end {
			continue
		}
		used[fn] = true
	}

	ifaces := interfaces(info, checked)
	for _, d := range decls {
		if used[d.fn] || implementsInterface(d.fn, ifaces) {
			continue
		}
		t.Errorf("%s: %s has no caller outside _test.go files; move it into one", fset.Position(d.pos), d.fn.FullName())
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
