package jinjing_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// solverImporters are the only non-test sources outside benchmark/ that
// may import the SAT solver or the formula layer: a directory admits
// every file in it. Check, fix and generate decide in the packet-set
// algebra; the solver serves the monolithic baseline (monolithic.go),
// CheckResult's counters (check.go), the ACL equivalence and
// simplification references (internal/acl) and the experiments' Fig. 4a
// table.
var solverImporters = map[string]bool{
	"internal/acl":                true,
	"internal/smt":                true,
	"internal/experiments":        true,
	"internal/core/check.go":      true,
	"internal/core/monolithic.go": true,
}

// aclSolverCallers are the only non-test sources outside benchmark/ that
// may call the solver-backed acl.Equivalent or acl.Simplify.
var aclSolverCallers = map[string]bool{
	"internal/acl": true,
}

// guardAdmits reports whether list names path or its directory.
func guardAdmits(list map[string]bool, path string) bool {
	path = filepath.ToSlash(path)
	return list[path] || list[filepath.ToSlash(filepath.Dir(path))]
}

// TestSolverStaysOffOperations parses the non-test Go outside benchmark/
// and fails on an import of internal/sat or internal/smt, or a call of
// acl.Equivalent or acl.Simplify, from a file the lists above do not
// admit: an operation that reached the solver again would show here
// before it showed in a profile.
func TestSolverStaysOffOperations(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "benchmark" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		aclName := ""
		for _, imp := range file.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			switch ipath {
			case "jinjing/internal/sat", "jinjing/internal/smt":
				if !guardAdmits(solverImporters, path) {
					t.Errorf("%s imports %s, and %s is not in solverImporters", fset.Position(imp.Pos()), ipath, path)
				}
			case "jinjing/internal/acl":
				aclName = "acl"
				if imp.Name != nil {
					aclName = imp.Name.Name
				}
			}
		}
		if aclName == "" || guardAdmits(aclSolverCallers, path) {
			return nil
		}
		file, err = parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Equivalent" && sel.Sel.Name != "Simplify") {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == aclName {
				t.Errorf("%s uses acl.%s, and %s is not in aclSolverCallers", fset.Position(sel.Pos()), sel.Sel.Name, path)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
