package obs

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoPublisherBelowManagers holds the layering of the event stream: the
// managers in internal/core publish every cache event, so no non-test file
// of the arena (internal/codecache) or of the local policies
// (internal/policy) may import this package.
func TestNoPublisherBelowManagers(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"../codecache", "../policy"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := 0
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			files++
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/internal/obs" {
					t.Errorf("%s imports %s; publish from the manager that owns the arena instead", fset.Position(imp.Pos()), p)
				}
			}
		}
		if files == 0 {
			t.Errorf("no Go files found in %s", dir)
		}
	}
}
