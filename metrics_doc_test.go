package jinjing_test

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

// composedMetrics expands the metric names the code builds at run time
// from a literal prefix: each is listed here with every suffix it can
// take, so the documentation check below still sees whole names.
var composedMetrics = map[string][]string{
	"daemon.restore.": {"ok", "corrupt", "stale"}, // restoreSnapshot's outcomes
}

// emittedMetrics collects "kind name" for every Counter/Gauge/Histogram
// call with a literal name in the non-test source outside benchmark/.
// A name built from a literal prefix must be listed in composedMetrics;
// any other non-literal name is only allowed in internal/obs, whose
// Observer forwards the caller's name to the registry.
func emittedMetrics(t *testing.T) map[string]bool {
	t.Helper()
	kinds := map[string]string{"Counter": "counter", "Gauge": "gauge", "Histogram": "histogram"}
	out := map[string]bool{}
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
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || kinds[sel.Sel.Name] == "" {
				return true
			}
			kind, arg, composed := kinds[sel.Sel.Name], call.Args[0], false
			if bin, ok := arg.(*ast.BinaryExpr); ok {
				arg, composed = bin.X, true
			}
			lit, ok := arg.(*ast.BasicLit)
			switch {
			case !ok || lit.Kind != token.STRING:
				if filepath.Dir(path) != filepath.Join("internal", "obs") {
					t.Errorf("%s: %s(...) with a name this test cannot read; use a literal or a literal prefix listed in composedMetrics",
						fset.Position(call.Pos()), sel.Sel.Name)
				}
			case composed:
				prefix, _ := strconv.Unquote(lit.Value)
				if composedMetrics[prefix] == nil {
					t.Errorf("%s: composed metric name %q... is not listed in composedMetrics", fset.Position(call.Pos()), prefix)
				}
				for _, suffix := range composedMetrics[prefix] {
					out[kind+" "+prefix+suffix] = true
				}
			default:
				name, _ := strconv.Unquote(lit.Value)
				out[kind+" "+name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// documentedMetrics collects "kind name" for every backticked name in
// the first column of README's "Metrics reference" tables; the paragraph
// introducing each table says which kind it lists.
func documentedMetrics(t *testing.T) map[string]bool {
	t.Helper()
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(readme), "\n### Metrics reference\n")
	if !found {
		t.Fatal("README.md has no \"### Metrics reference\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	name := regexp.MustCompile("`([^`]+)`")
	out := map[string]bool{}
	kind := ""
	for _, line := range strings.Split(section, "\n") {
		switch low := strings.ToLower(line); {
		case strings.HasPrefix(line, "|"):
			cells := strings.Split(line, "|")
			if kind == "" {
				t.Fatalf("metrics table row before any Counters/Gauges/Histograms heading: %s", line)
			}
			for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
				out[kind+" "+m[1]] = true
			}
		case strings.HasPrefix(low, "counters"), strings.HasPrefix(low, "daemon counters"):
			kind = "counter"
		case strings.HasPrefix(low, "gauges"):
			kind = "gauge"
		case strings.HasPrefix(low, "histograms"):
			kind = "histogram"
		}
	}
	return out
}

// TestMetricsReferenceMatchesCode holds README's metrics reference equal
// to the metric names the code emits, kind included, in both directions:
// an emitted metric the table does not list fails, and so does a listed
// one nothing emits.
func TestMetricsReferenceMatchesCode(t *testing.T) {
	emitted, documented := emittedMetrics(t), documentedMetrics(t)
	if len(emitted) == 0 || len(documented) == 0 {
		t.Fatalf("collected %d emitted and %d documented metrics", len(emitted), len(documented))
	}
	var drift []string
	for m := range emitted {
		if !documented[m] {
			drift = append(drift, "emitted but not in README's metrics reference: "+m)
		}
	}
	for m := range documented {
		if !emitted[m] {
			drift = append(drift, "in README's metrics reference but never emitted: "+m)
		}
	}
	sort.Strings(drift)
	for _, d := range drift {
		t.Error(d)
	}
}
