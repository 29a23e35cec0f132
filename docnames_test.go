package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedDocs are the documents whose back-ticked Go names must exist.
var citedDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// The qualified names a document cites inside `back ticks`:
// (*pkg.Type).Method, and pkg.Name or pkg.Type.Member where Name and
// Type start with a capital letter. A lower-case second part (a bench
// metric such as core.decide_s, a file such as sink.go) is no Go name.
var (
	codeSpan  = regexp.MustCompile("`([^`]+)`")
	fence     = regexp.MustCompile("(?ms)^```.*?^```")
	ptrMethod = regexp.MustCompile(`\(\*([a-z]\w*)\.([A-Z]\w*)\)\.(\w+)`)
	qualified = regexp.MustCompile(`(^|[^\w./*])([a-z]\w*)\.([A-Z]\w*)(?:\.(\w+))?`)
)

// TestDocsCiteExistingNames fails on a back-ticked qualified Go name in
// the documents that no declaration of the module answers to, so a doc
// cannot go on describing an API that was renamed or deleted. pkg is a
// package's name (its external test package counts as the package);
// every .go file is parsed, test files included, so a doc may cite a
// test, an example or a reference oracle. A Member is a method of the
// type, a field of its struct (promoted fields and methods of an
// embedded type of the module included) or a method of its interface.
func TestDocsCiteExistingNames(t *testing.T) {
	pkgs := declsByPackage(t)
	cited := 0
	for _, doc := range citedDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fence.ReplaceAllString(string(b), "")
		for _, m := range codeSpan.FindAllStringSubmatch(text, -1) {
			span := strings.ReplaceAll(m[1], "\n", " ")
			for _, n := range ptrMethod.FindAllStringSubmatch(span, -1) {
				if p, ok := pkgs[n[1]]; ok {
					cited++
					if !p.has(pkgs, n[2], n[3]) {
						t.Errorf("%s cites %s, which the module does not declare", doc, n[0])
					}
				}
			}
			for _, n := range qualified.FindAllStringSubmatch(ptrMethod.ReplaceAllString(span, ""), -1) {
				if p, ok := pkgs[n[2]]; ok {
					cited++
					if !p.has(pkgs, n[3], n[4]) {
						t.Errorf("%s cites %s, which the module does not declare", doc, strings.TrimPrefix(n[0], n[1]))
					}
				}
			}
		}
	}
	if cited == 0 {
		t.Error("the documents cite no qualified Go name; the check sees nothing")
	}
}

// pkgDecls is one package's top-level declarations.
type pkgDecls struct {
	names   map[string]bool            // every top-level name
	members map[string]map[string]bool // type -> its methods, fields and interface methods
	embeds  map[string][]ast.Expr      // type -> its embedded types
}

// has reports whether the package declares name, and, when member is
// not empty, whether type name has member, directly or by embedding.
func (p *pkgDecls) has(pkgs map[string]*pkgDecls, name, member string) bool {
	if !p.names[name] {
		return false
	}
	if member == "" || p.members[name][member] {
		return true
	}
	for _, e := range p.embeds[name] {
		if star, ok := e.(*ast.StarExpr); ok {
			e = star.X
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && pkgs[x.Name] != nil && pkgs[x.Name].has(pkgs, sel.Sel.Name, member) {
				return true
			}
		} else if p.has(pkgs, typeName(e), member) {
			return true
		}
	}
	return false
}

// declsByPackage parses every .go file of the module, test files
// included, and indexes its declarations by package name.
func declsByPackage(t *testing.T) map[string]*pkgDecls {
	t.Helper()
	pkgs := map[string]*pkgDecls{}
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
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := strings.TrimSuffix(f.Name.Name, "_test")
		pd := pkgs[name]
		if pd == nil {
			pd = &pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]ast.Expr{}}
			pkgs[name] = pd
		}
		member := func(typ, m string) {
			if pd.members[typ] == nil {
				pd.members[typ] = map[string]bool{}
			}
			pd.members[typ][m] = true
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					pd.names[decl.Name.Name] = true
					continue
				}
				member(typeName(decl.Recv.List[0].Type), decl.Name.Name)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							pd.names[id.Name] = true
						}
					case *ast.TypeSpec:
						typ := spec.Name.Name
						pd.names[typ] = true
						var fields *ast.FieldList
						switch st := spec.Type.(type) {
						case *ast.StructType:
							fields = st.Fields
						case *ast.InterfaceType:
							fields = st.Methods
						}
						if fields == nil {
							continue
						}
						for _, fl := range fields.List {
							for _, id := range fl.Names {
								member(typ, id.Name)
							}
							if len(fl.Names) == 0 {
								pd.embeds[typ] = append(pd.embeds[typ], fl.Type)
								member(typ, typeName(fl.Type))
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	delete(pkgs, "main")
	return pkgs
}

// typeName is the name of a receiver's or an embedded field's type: the
// name an embedded field gives its struct.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}
