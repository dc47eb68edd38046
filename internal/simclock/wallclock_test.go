package simclock

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// wallClock names the time package's functions that read or wait on the
// wall clock.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// TestNoWallClockOutsideReal holds every internal package to an injected
// Clock: no non-test file under internal/ except real.go may reach the wall
// clock through the time package, whatever name it is imported under. A
// virtual production day is bit-reproducible only while this holds.
func TestNoWallClockOutsideReal(t *testing.T) {
	const root = ".."
	realGo := filepath.Join(root, "simclock", "real.go")
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") ||
			strings.HasSuffix(path, "_test.go") || path == realGo {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		var names []string // the file's local names for the time package
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != "time" {
				continue
			}
			switch {
			case imp.Name == nil:
				names = append(names, "time")
			case imp.Name.Name == ".":
				t.Errorf("%s: dot import of time hides wall-clock calls", fset.Position(imp.Pos()))
			case imp.Name.Name != "_":
				names = append(names, imp.Name.Name)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !wallClock[sel.Sel.Name] {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && slices.Contains(names, x.Name) {
				t.Errorf("%s: %s.%s reads the wall clock; take a simclock.Clock instead",
					fset.Position(sel.Pos()), x.Name, sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go files found under internal/")
	}
}
