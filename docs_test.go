package graphite_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocsNameDeclaredIdentifiers is `make docs-check`: the Go names DESIGN.md
// and README.md put in backticks must still exist, so a rename or a deletion
// cannot leave the documents pointing at nothing.
//
//   - `pkg.Ident`, pkg a package directory under internal/ and Ident exported,
//     must be declared at top level in that package's non-test files
//     (`pkg.Type.Field` is checked as far as the type). Lowercase `pkg.name`s
//     are metric and trace names.
//   - A span that is a bare CamelCase name — `Ident`, `Ident.Field`,
//     `Ident()` — must appear as an identifier somewhere in the repository's
//     Go code, tests included: type, field, method, test.
func TestDocsNameDeclaredIdentifiers(t *testing.T) {
	decls := map[string]map[string]bool{} // package directory name -> its top-level identifiers
	seen := map[string]bool{}             // every identifier in the repository's Go code
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				seen[id.Name] = true
			}
			return true
		})
		if !strings.HasPrefix(path, "internal"+string(filepath.Separator)) || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		pkg := filepath.Base(filepath.Dir(path))
		if decls[pkg] == nil {
			decls[pkg] = map[string]bool{}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					decls[pkg][d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						decls[pkg][s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							decls[pkg][n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`[^`\n]+`")
	qualified := regexp.MustCompile(`(?:^|[^\w/.])([a-z][a-z0-9]*)\.([A-Z]\w*)`)
	bare := regexp.MustCompile(`^` + "`" + `([A-Z]\w*[a-z]\w*)(?:\.\w+)*(?:\(\))?` + "`" + `$`)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, sp := range span.FindAllString(line, -1) {
				for _, m := range qualified.FindAllStringSubmatch(sp, -1) {
					if ids, ok := decls[m[1]]; ok && !ids[m[2]] {
						t.Errorf("%s:%d: %s names %s.%s, which package %s does not declare", doc, i+1, sp, m[1], m[2], m[1])
					}
				}
				if m := bare.FindStringSubmatch(sp); m != nil && !seen[m[1]] {
					t.Errorf("%s:%d: %s names %s, which no Go code does", doc, i+1, sp, m[1])
				}
			}
		}
	}
}

// TestChangesEntriesAreCapped is `make docs-check` too: a CHANGES.md entry —
// the line opening "- **PR n" — is at most 3 000 bytes from PR 46 on, so the
// log says what changed and leaves measurement prose to the measurements.
func TestChangesEntriesAreCapped(t *testing.T) {
	data, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	entry := regexp.MustCompile(`^- \*\*PR (\d+)\b`)
	for i, line := range strings.Split(string(data), "\n") {
		m := entry.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if pr, _ := strconv.Atoi(m[1]); pr >= 46 && len(line) > 3000 {
			t.Errorf("CHANGES.md:%d: the entry for PR %d is %d bytes, over the 3 000-byte cap", i+1, pr, len(line))
		}
	}
}
