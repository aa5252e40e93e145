package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The benchmark judges the refactors the roadmap plans, so it may lean
// only on what they keep: the standard library, the costream facade, and
// of the internal packages artifact.Load and serve.New with its Config
// and Server. ref.go, the yardstick, gets the standard library alone.
func TestImportBudget(t *testing.T) {
	internal := map[string]map[string]bool{
		"costream/internal/artifact": {"Load": true},
		"costream/internal/serve":    {"New": true, "Config": true, "Server": true},
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		budget := map[string]map[string]bool{} // local package name -> allowed selectors
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(path, "costream") && !strings.Contains(strings.SplitN(path, "/", 2)[0], ".") {
				continue // standard library
			}
			switch {
			case name == "ref.go":
				t.Errorf("ref.go imports %q: the reference may import no repository package", path)
			case path == "costream":
			case internal[path] != nil:
				budget[path[strings.LastIndexByte(path, '/')+1:]] = internal[path]
			default:
				t.Errorf("%s imports %q, which is outside the benchmark's API budget", name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Obj == nil && budget[pkg.Name] != nil && !budget[pkg.Name][sel.Sel.Name] {
				t.Errorf("%s uses %s.%s, which is outside the benchmark's API budget", name, pkg.Name, sel.Sel.Name)
			}
			return true
		})
	}
}
