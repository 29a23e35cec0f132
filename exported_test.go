package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestExportedFunctionsHaveProductionCallers fails on an exported
// top-level function under internal/ that no non-test file of the module
// references. staticcheck's unused check (U1000) counts every exported
// name as used, so CI's production-only step cannot see a function that
// only tests call; such helpers and oracles belong in _test.go files.
// Every non-test file counts as a reference, bench/ included. Methods are
// exempt: one can satisfy an interface by its name alone.
func TestExportedFunctionsHaveProductionCallers(t *testing.T) {
	type decl struct{ key, pos string }
	var decls []decl
	used := map[string]bool{} // "import/path.Name" referenced by a non-test file
	fset := token.NewFileSet()
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
		imports := map[string]string{} // local name -> import path
		for _, im := range f.Imports {
			ip, err := strconv.Unquote(im.Path.Value)
			if err != nil {
				return err
			}
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		notUse := map[*ast.Ident]bool{} // selected names and declared function names
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				notUse[n.Name] = true
				if n.Recv == nil && n.Name.IsExported() && strings.HasPrefix(pkg, "repro/internal/") {
					decls = append(decls, decl{pkg + "." + n.Name.Name, fset.Position(n.Pos()).String()})
				}
			case *ast.SelectorExpr:
				notUse[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						used[ip+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if !notUse[n] {
					used[pkg+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported functions under internal/")
	}
	for _, d := range decls {
		if !used[d.key] {
			t.Errorf("%s: %s has no caller outside _test.go files; move it into one", d.pos, d.key)
		}
	}
}
