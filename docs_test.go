package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	codeSpan = regexp.MustCompile("`([^`]+)`")
	fence    = regexp.MustCompile("(?m)^```[^\n]*\n(?s:.*?)^```")
	testRef  = regexp.MustCompile(`^(?:Test|Benchmark|Example|Fuzz)\w*\*?$`)
	pathRef  = regexp.MustCompile(`^(?:internal|cmd|benchmark)/[^\s:]*`)
	pkgRef   = regexp.MustCompile(`^(.*/(\w+))\.([A-Z].*)$`) // internal/pkg.Ident
	identRef = regexp.MustCompile(`^([a-z]\w*)\.([A-Z]\w*)(?:\.(\w+))?(?:\(.*\))?$`)
)

// Every backticked reference in the documents resolves: a test, benchmark,
// example or fuzz target names a function of some _test.go file (a
// trailing * names a prefix); a path under internal/, cmd/ or benchmark/
// exists, or is a run's output that .gitignore lists; and pkg.Ident or
// pkg.Type.Member names a declaration, method or field of the package
// internal/pkg, where a bare method name counts as an Ident. Fenced code
// blocks are commands, not references, and are skipped.
func TestDocReferences(t *testing.T) {
	// The documents: the three at the root and the repository's skill
	// notes, which hold the build-and-verify recipe.
	skills, err := filepath.Glob(".*/skills/*/SKILL.md")
	if err != nil || len(skills) == 0 {
		t.Fatalf("no skill notes found: %v", err)
	}
	docs := append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, skills...)
	tests, decls := declarations(t)
	ignore, err := os.ReadFile(".gitignore")
	if err != nil {
		t.Fatal(err)
	}
	outputs := strings.Split(string(ignore), "\n")
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fence.ReplaceAllStringFunc(string(data), func(block string) string {
			return strings.Repeat("\n", strings.Count(block, "\n")) // keep the line numbers
		})
		for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
			ref := strings.Join(strings.Fields(text[m[2]:m[3]]), " ")
			if !resolves(ref, tests, decls, outputs) {
				t.Errorf("%s:%d: `%s` names nothing in the tree", doc, 1+strings.Count(text[:m[0]], "\n"), ref)
			}
		}
	}
}

// resolves reports whether ref, one code span, names something that exists;
// a span that is none of the three kinds of reference resolves trivially.
func resolves(ref string, tests map[string]bool, decls map[string]map[string]bool, outputs []string) bool {
	switch {
	case testRef.MatchString(ref):
		if prefix, ok := strings.CutSuffix(ref, "*"); ok {
			for name := range tests {
				if strings.HasPrefix(name, prefix) {
					return true
				}
			}
			return false
		}
		return tests[ref]
	case pathRef.MatchString(ref):
		path := pathRef.FindString(ref)
		if m := pkgRef.FindStringSubmatch(path); m != nil {
			return resolves(m[1], tests, decls, outputs) && resolves(m[2]+"."+m[3], tests, decls, outputs)
		}
		_, err := os.Stat(path)
		return err == nil || slices.Contains(outputs, "/"+path)
	}
	m := identRef.FindStringSubmatch(ref)
	if m == nil || decls[m[1]] == nil {
		return true
	}
	name := m[2]
	if m[3] != "" {
		name += "." + m[3]
	}
	return decls[m[1]][name]
}

// declarations parses the tree. It returns the names of the test,
// benchmark, example and fuzz functions, and for each package under
// internal/ the names it declares: top-level identifiers and method names,
// and Type.Member for every method and struct or interface field.
func declarations(t *testing.T) (map[string]bool, map[string]map[string]bool) {
	tests := map[string]bool{}
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := ""
		if dir := filepath.Dir(path); filepath.Dir(dir) == "internal" {
			pkg = filepath.Base(dir)
			if decls[pkg] == nil {
				decls[pkg] = map[string]bool{}
			}
		}
		add := func(name string) {
			if pkg != "" {
				decls[pkg][name] = true
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					if strings.HasSuffix(path, "_test.go") && testRef.MatchString(decl.Name.Name) {
						tests[decl.Name.Name] = true
					}
					add(decl.Name.Name)
				} else {
					add(typeName(decl.Recv.List[0].Type) + "." + decl.Name.Name)
					add(decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add(n.Name)
						}
					case *ast.TypeSpec:
						add(spec.Name.Name)
						var fields []*ast.Field
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields.List
						case *ast.InterfaceType:
							fields = typ.Methods.List
						}
						for _, field := range fields {
							for _, n := range field.Names {
								add(spec.Name.Name + "." + n.Name)
							}
							if len(field.Names) == 0 { // embedded
								add(spec.Name.Name + "." + typeName(field.Type))
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
	return tests, decls
}

// typeName is the name of a receiver or embedded type, without its
// pointer, package or type parameters.
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
