package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// facadeName is one top-level declaration of a facade.
type facadeName struct{ dir, name string }

// TestFacadeNamesReferenced keeps the public surface to the names the
// repository itself uses. A facade name is referenced when it appears
// as <pkg>.<Name> in a non-test Go file that imports its facade (the
// CLIs, the examples, the other facades), in the body of an Example
// function, or in README.md, or when a referenced declaration of the
// same facade uses it. Names reachable from none of these are dead
// second spellings of internal names and must be deleted.
func TestFacadeNamesReferenced(t *testing.T) {
	kernels, err := filepath.Glob("kernels/*")
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]string{} // import path -> facade dir
	byPkg := map[string]string{}  // package name -> facade dir
	for _, dir := range append([]string{"sim", "pusch", "waveform", "fixedpoint"}, kernels...) {
		byPath["repro/"+dir] = dir
		byPkg[filepath.Base(dir)] = dir
	}

	declared := map[facadeName]bool{}
	uses := map[facadeName][]facadeName{} // declaration -> names it uses
	var roots []facadeName
	fset := token.NewFileSet()

	// refs collects the facade names node mentions: <pkg>.<Name>
	// selectors on facade imports, and bare identifiers (resolved
	// against self's own declarations when self is non-empty).
	refs := func(node ast.Node, imports map[string]string, self string) []facadeName {
		var out []facadeName
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[id.Name]; ok {
						out = append(out, facadeName{dir, n.Sel.Name})
						return false
					}
				}
				ast.Inspect(n.X, visit) // the selected name is not a reference
				return false
			case *ast.Ident:
				if self != "" {
					out = append(out, facadeName{self, n.Name})
				}
			}
			return true
		}
		ast.Inspect(node, visit)
		return out
	}

	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		imports := map[string]string{} // local name -> facade dir
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			dir, ok := byPath[p]
			if !ok {
				continue
			}
			local := filepath.Base(p)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = dir
		}
		isTest := strings.HasSuffix(path, "_test.go")
		self := filepath.ToSlash(filepath.Dir(path))
		if _, facade := byPath["repro/"+self]; facade && !isTest {
			declare := func(name string, used []facadeName) {
				n := facadeName{self, name}
				declared[n] = true
				uses[n] = append(uses[n], used...)
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					declare(decl.Name.Name, refs(decl, imports, self))
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							declare(spec.Name.Name, refs(spec, imports, self))
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								declare(id.Name, refs(spec, imports, self))
							}
						}
					}
				}
			}
			return nil
		}
		if len(imports) == 0 {
			return nil
		}
		if !isTest {
			roots = append(roots, refs(f, imports, "")...)
			return nil
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(fn.Name.Name, "Example") && fn.Body != nil {
				roots = append(roots, refs(fn.Body, imports, "")...)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`\b([a-z]+)\.([A-Z]\w*)`).FindAllStringSubmatch(string(readme), -1) {
		if dir, ok := byPkg[m[1]]; ok {
			roots = append(roots, facadeName{dir, m[2]})
		}
	}

	// Keep everything reachable from the roots through the facades' own
	// declarations; what is left is unreferenced.
	kept := map[facadeName]bool{}
	for len(roots) > 0 {
		n := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if !declared[n] || kept[n] {
			continue
		}
		kept[n] = true
		roots = append(roots, uses[n]...)
	}
	var dead []string
	for n := range declared {
		if !kept[n] && ast.IsExported(n.name) {
			dead = append(dead, n.dir+"."+n.name)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d facade names have no caller in the CLIs, examples, Example functions or README.md; delete them:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}
