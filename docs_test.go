package repro

// Documentation checks: every relative markdown link must resolve,
// every repo path PAPER_MAP.md names must exist, every test it cites
// must still be defined, and every Go identifier it qualifies with an
// internal package must still be declared there. The CI markdown step runs exactly this
// test, so the docs cannot rot silently.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	mdLinkRe   = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	codePathRe = regexp.MustCompile("`((?:internal|examples|cmd)/[A-Za-z0-9_./-]*)`")
	testNameRe = regexp.MustCompile("`(Test[A-Za-z0-9_]+)`")
	qualIdRe   = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Za-z_][A-Za-z0-9_]*)(?:\\.([A-Za-z_][A-Za-z0-9_]*))?`")
)

// TestMarkdownLinks verifies that relative links in all top-level
// *.md files point at files or directories that exist.
func TestMarkdownLinks(t *testing.T) {
	mds, err := filepath.Glob("*.md")
	if err != nil || len(mds) == 0 {
		t.Fatalf("no markdown files found (%v)", err)
	}
	for _, md := range mds {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLinkRe.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "#") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.FromSlash(target)); err != nil {
				t.Errorf("%s: broken relative link %q", md, m[1])
			}
		}
	}
}

// TestPaperMapReferences keeps PAPER_MAP.md honest: every repo path
// it names in backticks must exist, every `TestXxx` it cites must be
// defined in some _test.go file, and every backticked identifier
// qualified by an internal package — `pkg.Name` or `pkg.Type.Member`,
// exported or not — must be declared in that package's non-test code.
func TestPaperMapReferences(t *testing.T) {
	data, err := os.ReadFile("PAPER_MAP.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, m := range codePathRe.FindAllStringSubmatch(text, -1) {
		p := filepath.FromSlash(m[1])
		if _, err := os.Stat(p); err != nil {
			t.Errorf("PAPER_MAP.md names %q, which does not exist", m[1])
		}
	}

	defined := map[string]bool{}
	funcRe := regexp.MustCompile(`func (Test[A-Za-z0-9_]+)\(`)
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcRe.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range testNameRe.FindAllStringSubmatch(text, -1) {
		if !defined[m[1]] {
			t.Errorf("PAPER_MAP.md cites %s, which is not defined in any _test.go", m[1])
		}
	}

	decls := internalDecls(t)
	checked := map[string]bool{}
	for _, m := range qualIdRe.FindAllStringSubmatch(text, -1) {
		pkg, name, member := m[1], m[2], m[3]
		ref := strings.Trim(m[0], "`")
		if decls[pkg] == nil || checked[ref] {
			continue
		}
		if member == "" && !ast.IsExported(name) {
			// `tsp.go`, `kv.all`: a file or a metric label, not an identifier.
			continue
		}
		checked[ref] = true
		key := name
		if member != "" {
			key += "." + member
		}
		if !decls[pkg][key] {
			t.Errorf("PAPER_MAP.md names %s, which package %s does not declare", ref, pkg)
		}
	}
	if len(checked) == 0 {
		t.Error("PAPER_MAP.md names no qualified identifier: the pattern has gone stale")
	}
	t.Logf("%d qualified identifiers checked", len(checked))
}

// internalDecls parses the non-test Go files of every package under
// internal/ and returns, by package name, its declared names: types,
// funcs, vars and consts as "Name", and methods and struct fields as
// "Type.Member".
func internalDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	out := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := out[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			out[f.Name.Name] = names
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					names[decl.Name.Name] = true
					continue
				}
				typ := decl.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if idx, ok := typ.(*ast.IndexExpr); ok {
					typ = idx.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					names[id.Name+"."+decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						st, ok := spec.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, field := range st.Fields.List {
							for _, id := range field.Names {
								names[spec.Name.Name+"."+id.Name] = true
							}
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							names[id.Name] = true
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
	return out
}
