// doccheck enforces the repository's godoc contract on the packages
// that form its operational surface: every exported identifier must
// carry a doc comment, and the package comment must live in doc.go
// (one canonical place, not whichever file happens to sort first).
//
// check.sh runs it over the serving stack — the packages an
// operator reads first — so documentation drift fails the build the
// same way a broken test does:
//
//	go run ./scripts/doccheck internal/serve internal/runner ...
//
// Exit status is nonzero when any package violates the contract; every
// violation is reported as file:line so the fix is one click away.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <package-dir> ...")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		bad += checkDir(dir)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d undocumented exported identifier(s)\n", bad)
		os.Exit(1)
	}
}

// checkDir reports the number of violations in one package directory.
func checkDir(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
		return 1
	}
	bad := 0
	for _, pkg := range pkgs {
		bad += checkPackageComment(fset, dir, pkg)
		for _, f := range pkg.Files {
			bad += checkFile(fset, f)
		}
	}
	return bad
}

// checkPackageComment requires the package comment to exist and to be
// attached to the package clause in doc.go.
func checkPackageComment(fset *token.FileSet, dir string, pkg *ast.Package) int {
	for name, f := range pkg.Files {
		if filepath.Base(name) != "doc.go" {
			if f.Doc != nil {
				fmt.Printf("%s: package comment must live in doc.go\n", fset.Position(f.Doc.Pos()))
				return 1
			}
			continue
		}
		if f.Doc == nil {
			fmt.Printf("%s: doc.go has no package comment\n", name)
			return 1
		}
		return 0
	}
	fmt.Printf("%s: package %s has no doc.go\n", dir, pkg.Name)
	return 1
}

// checkFile reports exported top-level identifiers without doc
// comments.
func checkFile(fset *token.FileSet, f *ast.File) int {
	bad := 0
	complain := func(pos token.Pos, what, name string) {
		fmt.Printf("%s: exported %s %s has no doc comment\n", fset.Position(pos), what, name)
		bad++
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			what := "function"
			name := d.Name.Name
			if d.Recv != nil {
				// Methods on unexported types are internal API; skip.
				recv := receiverType(d.Recv)
				if recv == "" || !ast.IsExported(recv) {
					continue
				}
				what = "method"
				name = recv + "." + name
			}
			complain(d.Name.Pos(), what, name)
		case *ast.GenDecl:
			switch d.Tok {
			case token.TYPE:
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					if ts.Name.IsExported() && ts.Doc == nil && d.Doc == nil {
						complain(ts.Name.Pos(), "type", ts.Name.Name)
					}
				}
			case token.CONST, token.VAR:
				// A group doc comment covers the whole block; otherwise
				// each exported spec needs its own comment.
				if d.Doc != nil {
					continue
				}
				for _, spec := range d.Specs {
					vs := spec.(*ast.ValueSpec)
					if vs.Doc != nil || vs.Comment != nil {
						continue
					}
					for _, n := range vs.Names {
						if n.IsExported() {
							complain(n.Pos(), strings.ToLower(d.Tok.String()), n.Name)
						}
					}
				}
			}
		}
	}
	return bad
}

// receiverType extracts the receiver's type name ("" when anonymous or
// exotic).
func receiverType(fl *ast.FieldList) string {
	if len(fl.List) == 0 {
		return ""
	}
	t := fl.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if gen, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = gen.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
