package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// bindingNameReaders are the only functions of core's non-test sources
// that may build a binding's or an interface's name (call its ID
// method). Within a network core keys a binding by its interface ordinal
// (bindingTable); a name is built only where a binding leaves the engine
// or crosses to another network.
var bindingNameReaders = map[string]string{
	"moveBinding":               "a binding crosses to another network",
	"fixIndex.emit":             "FixAction.BindingID",
	"Engine.generateTargets":    "GenerateResult.ACLs keys",
	"tracePath":                 "Explain",
	"Engine.networkFingerprint": "the ledger's configuration fingerprints",
	"IfaceSet.names":            "the verdict snapshot digest's control intents",
	"Engine.bindingIndex":       "the verdict snapshot digest's structure word",
}

// TestBindingNamesStayAtTheEdges parses core's non-test sources and fails
// on an ID call from a function bindingNameReaders does not list, or on
// a listed function that no longer exists: a lookup keyed by name again
// would show here before it showed in a profile.
func TestBindingNamesStayAtTheEdges(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	seen := map[string]bool{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			name := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				name = fd.Name.Name
				if fd.Recv != nil {
					recv := fd.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						name = id.Name + "." + name
					}
				}
				seen[name] = true
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 0 {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "ID" {
					if _, edge := bindingNameReaders[name]; !edge {
						t.Errorf("%s: %q builds a name, and is not in bindingNameReaders", fset.Position(call.Pos()), name)
					}
				}
				return true
			})
		}
	}
	for name := range bindingNameReaders {
		if !seen[name] {
			t.Errorf("bindingNameReaders lists %s, which core no longer has", name)
		}
	}
}
