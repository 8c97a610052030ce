package shard

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// maxFuncLines bounds every non-test function of the package, func line to
// closing brace: the trainer is a worker with one method per step phase,
// and the step loop must not grow back into one body.
const maxFuncLines = 150

func TestFunctionLengthLimit(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if n := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1; n > maxFuncLines {
				t.Errorf("%s: %s is %d lines, limit %d", fset.Position(fn.Pos()), fn.Name.Name, n, maxFuncLines)
			}
		}
	}
}
