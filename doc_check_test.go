package projfreq_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// docCheckedSources are the files whose exported identifiers must all
// carry doc comments (CI runs this as its docs gate): the public
// facade, the whole subspace registry package, the engine's query
// API (the Query/Result/QueryBatch surface the planner work lives
// on), and the daemon's /v1 request and response bodies. Files marked
// wantPackageDoc must also carry the package comment.
var docCheckedSources = []struct {
	path           string
	wantPackageDoc bool
}{
	{"projfreq.go", true},
	{"internal/registry/registry.go", true},
	{"internal/registry/marshal.go", false},
	{"internal/engine/query.go", false},
	{"internal/node/node.go", true},
	{"internal/node/admin.go", false},
}

// TestPublicAPIDocumented fails when an exported identifier in the
// checked sources lacks a doc comment, keeping the public surface and
// the query-path internals fully godoc-covered. Grouped declarations
// count as documented when either the group or the individual spec
// carries a comment.
func TestPublicAPIDocumented(t *testing.T) {
	for _, src := range docCheckedSources {
		t.Run(strings.ReplaceAll(src.path, "/", "_"), func(t *testing.T) {
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, filepath.FromSlash(src.path), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			if src.wantPackageDoc && file.Doc == nil {
				t.Errorf("%s: missing package comment", src.path)
			}
			report := func(pos token.Pos, name string) {
				t.Errorf("%s: exported %s is undocumented", fset.Position(pos), name)
			}
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						report(d.Pos(), "func "+d.Name.Name)
					}
				case *ast.GenDecl:
					groupDoc := d.Doc != nil
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && !groupDoc && s.Doc == nil && s.Comment == nil {
								report(s.Pos(), "type "+s.Name.Name)
							}
							// Exported fields of exported structs are part of
							// the documented surface too (Query, Result,
							// Target, …).
							st, ok := s.Type.(*ast.StructType)
							if !ok || !s.Name.IsExported() {
								break
							}
							for _, f := range st.Fields.List {
								for _, n := range f.Names {
									if n.IsExported() && f.Doc == nil && f.Comment == nil {
										report(n.Pos(), "field "+s.Name.Name+"."+n.Name)
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() && !groupDoc && s.Doc == nil && s.Comment == nil {
									report(n.Pos(), n.Name)
								}
							}
						}
					}
				}
			}
		})
	}
}

// testOnlyAllowlist names the exported internal funcs that may keep
// no non-test caller, each for a stated reason.
var testOnlyAllowlist = map[string]string{
	"sketch.CountSketchForError":  "ROADMAP item 2(b) adopts CountSketch or deletes it",
	"workload.ZipfCatalogBatches": "ROADMAP item 17's benchmark workload",
	"codes.NewCodeword":           "Codeword's one constructor from an explicit support",
	"words.Index":                 "Remark 1's canonical index e(w), Section 2's worked example in tests",
}

// TestNoTestOnlyExports fails when an exported package-level func in a
// non-test file under internal/ has no non-test caller. Callers are
// traced from every non-test Go file outside internal/ (the benchmark
// module included): a declaration reached that way reaches every
// package-level name it mentions, as pkg.Name from another package or
// as Name in its own, and a method is reached with its receiver type.
// So a constructor that only its own type's decoder calls is reported
// along with that type. Methods themselves are not reported, nor are
// the funcs of internal/clustertest, which exists to serve tests.
func TestNoTestOnlyExports(t *testing.T) {
	// decl is a package-level name; the zero decl stands for every
	// declaration outside internal/ or in internal/clustertest, and
	// for init funcs and blank vars.
	type decl struct{ dir, name string }
	var root decl
	fset := token.NewFileSet()
	checked := make(map[decl]token.Pos)
	mentions := map[decl]map[decl]bool{root: {}}
	for key := range testOnlyAllowlist {
		pkg, name, _ := strings.Cut(key, ".")
		mentions[root][decl{"internal/" + pkg, name}] = true
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go"):
			return nil
		}
		file, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := path.Dir(filepath.ToSlash(p))
		internal := strings.HasPrefix(dir, "internal/") && dir != "internal/clustertest"
		// imported maps each local package name to its directory here;
		// the benchmark module imports repro/... as well.
		imported := make(map[string]string)
		for _, imp := range file.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			if rel, ok := strings.CutPrefix(ip, "repro/"); ok {
				name := path.Base(ip)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imported[name] = rel
			}
		}
		// scan records every package-level name n mentions as
		// mentioned by from; a field or method name is not one.
		scan := func(from decl, n ast.Node) {
			if !internal || from.name == "_" || from.name == "init" {
				from = root
			}
			if mentions[from] == nil {
				mentions[from] = make(map[decl]bool)
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imported[x.Name] != "" {
						mentions[from][decl{imported[x.Name], n.Sel.Name}] = true
						return false
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					mentions[from][decl{dir, n.Name}] = true
				}
				return true
			}
			ast.Inspect(n, visit)
		}
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				self := decl{dir, d.Name.Name}
				if d.Recv != nil {
					typ := d.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					switch g := typ.(type) {
					case *ast.IndexExpr:
						typ = g.X
					case *ast.IndexListExpr:
						typ = g.X
					}
					self = decl{dir, typ.(*ast.Ident).Name}
					scan(self, d.Recv)
				} else if internal && d.Name.IsExported() {
					checked[self] = d.Name.Pos()
				}
				scan(self, d.Type)
				if d.Body != nil {
					scan(self, d.Body)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						scan(decl{dir, s.Name.Name}, s)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							scan(decl{dir, n.Name}, s)
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
	reached := map[decl]bool{root: true}
	for queue := []decl{root}; len(queue) > 0; queue = queue[1:] {
		for m := range mentions[queue[0]] {
			if !reached[m] {
				reached[m] = true
				queue = append(queue, m)
			}
		}
	}
	var unreached []string
	for f, pos := range checked {
		if !reached[f] {
			unreached = append(unreached, fset.Position(pos).String()+": "+path.Base(f.dir)+"."+f.name)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s has no non-test caller", u)
	}
}
