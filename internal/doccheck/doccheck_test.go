// Package doccheck enforces the repository's documentation contract:
// every exported symbol of the public API surface (packages cypher and
// cypherclient) and of the core internal layers (graph, match, server,
// tagjson) carries a doc comment.
// It runs as an ordinary test, so `go test ./...` — and therefore CI —
// fails the moment an undocumented exported symbol lands.
package doccheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// checkedPackages lists the directories whose exported symbols must be
// documented, relative to this package.
var checkedPackages = []string{
	filepath.Join("..", "..", "cypher"),
	filepath.Join("..", "..", "cypherclient"),
	filepath.Join("..", "graph"),
	filepath.Join("..", "match"),
	filepath.Join("..", "server"),
	filepath.Join("..", "tagjson"),
}

// TestExportedSymbolsAreDocumented parses each checked package and
// reports every exported type, function, method, constant and variable
// that lacks a doc comment. Grouped const/var declarations are fine
// when the group itself is documented.
func TestExportedSymbolsAreDocumented(t *testing.T) {
	for _, dir := range checkedPackages {
		fset := token.NewFileSet()
		notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
		pkgs, err := parser.ParseDir(fset, dir, notTest, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, missing := range undocumented(f) {
					pos := fset.Position(missing.pos)
					t.Errorf("%s:%d: exported %s %s has no doc comment",
						pos.Filename, pos.Line, missing.kind, missing.name)
				}
			}
		}
	}
}

type finding struct {
	kind string
	name string
	pos  token.Pos
}

// undocumented walks a file's top-level declarations and collects
// exported symbols without doc comments.
func undocumented(f *ast.File) []finding {
	var out []finding
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || !exportedReceiver(d) {
				continue
			}
			if d.Doc == nil {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				out = append(out, finding{kind: kind, name: funcName(d), pos: d.Pos()})
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						out = append(out, finding{kind: "type", name: s.Name.Name, pos: s.Pos()})
					}
				case *ast.ValueSpec:
					// A documented group covers its members; otherwise
					// each exported spec needs its own comment.
					if d.Doc != nil || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							out = append(out, finding{kind: "value", name: n.Name, pos: n.Pos()})
						}
					}
				}
			}
		}
	}
	return out
}

// exportedReceiver reports whether a function is free-standing or a
// method on an exported type (methods on unexported types are not part
// of the API surface).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	return !ok || id.IsExported()
}

func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return fmt.Sprintf("%s.%s", id.Name, d.Name.Name)
	}
	return d.Name.Name
}
