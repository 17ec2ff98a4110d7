package projfreq_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
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

// testOnlyAllowlist names the exported internal funcs (pkg.Func) and
// methods (pkg.Type.Method) that may keep no non-test caller, each for
// a stated reason.
var testOnlyAllowlist = map[string]string{
	"sketch.CountSketchForError":         "ROADMAP item 2(b) adopts CountSketch or deletes it",
	"sketch.CountSketch.Width":           "ROADMAP item 2(b) adopts CountSketch or deletes it",
	"sketch.CountSketch.Depth":           "ROADMAP item 2(b) adopts CountSketch or deletes it",
	"sketch.CountSketch.EstimateCount":   "ROADMAP item 2(b) adopts CountSketch or deletes it",
	"sketch.CountSketch.EstimateF2":      "ROADMAP item 2(b) adopts CountSketch or deletes it",
	"cluster.RowKey":                     "one row's ring key, the per-row owner PartitionBatch and the cluster tests are checked against",
	"workload.ZipfCatalogBatches":        "ROADMAP item 17's benchmark workload",
	"codes.NewCodeword":                  "Codeword's one constructor from an explicit support",
	"codes.Codeword.Rank":                "the Index reductions' enumeration e(·), checked against At in tests",
	"codes.ConstantWeightCode.Enumerate": "walks B(d, k) for the tests that check Lemma 3.2",
	"codes.Code.MaxPairwiseIntersection": "the quantity Lemma 3.2 bounds, checked in tests",
	"codes.Star.Enumerate":               "walks star_Q(y) for the tests that check the star construction",
	"words.Index":                        "Remark 1's canonical index e(w), Section 2's worked example in tests",
	"core.Net.VariateTableStats":         "ROADMAP item 6 reports the variate table's hit ratio",
}

// stdInterfaceMethods are the method names the standard library calls
// through an interface (fmt, errors, encoding, net/http, sort, io):
// a method of one of these names is used without any caller naming it.
var stdInterfaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "As": true, "String": true, "GoString": true, "Format": true,
	"MarshalBinary": true, "UnmarshalBinary": true, "MarshalText": true, "UnmarshalText": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true, "Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true,
}

// TestNoTestOnlyExports fails when an exported package-level func or
// method in a non-test file under internal/ has no non-test caller.
// Callers are traced from every non-test Go file outside internal/
// (the benchmark module included): a declaration reached that way
// reaches every package-level name it mentions, as pkg.Name from
// another package or as Name in its own, and a method is reached with
// its receiver type. So a constructor that only its own type's decoder
// calls is reported along with that type. A method counts as called
// when a reached declaration selects its name (x.Name) on any value:
// without types the guard cannot tell receivers apart, so it misses a
// dead method that shares its name with a live one, and it exempts the
// names the standard library calls (stdInterfaceMethods). The funcs
// and methods of internal/clustertest, which exists to serve tests, are
// not reported.
func TestNoTestOnlyExports(t *testing.T) {
	// decl is a package-level name; the zero decl stands for every
	// declaration outside internal/ or in internal/clustertest, and
	// for init funcs and blank vars.
	type decl struct{ dir, name string }
	var root decl
	fset := token.NewFileSet()
	checked := make(map[decl]token.Pos)
	mentions := map[decl]map[decl]bool{root: {}}
	// selected holds the names each declaration selects (x.Name); an
	// exported method is checked as Type.Method.
	selected := make(map[decl]map[string]bool)
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
			if selected[from] == nil {
				selected[from] = make(map[string]bool)
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imported[x.Name] != "" {
						mentions[from][decl{imported[x.Name], n.Sel.Name}] = true
						return false
					}
					selected[from][n.Sel.Name] = true
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
					if internal && d.Name.IsExported() && !stdInterfaceMethods[d.Name.Name] {
						checked[decl{dir, self.name + "." + d.Name.Name}] = d.Name.Pos()
					}
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
	called := make(map[string]bool)
	for queue := []decl{root}; len(queue) > 0; queue = queue[1:] {
		for name := range selected[queue[0]] {
			called[name] = true
		}
		for m := range mentions[queue[0]] {
			if !reached[m] {
				reached[m] = true
				queue = append(queue, m)
			}
		}
	}
	for f := range checked {
		if _, method, ok := strings.Cut(f.name, "."); ok && called[method] {
			reached[f] = true
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

// docIdentifier matches a code span that names a declaration as
// pkg.Name or pkg.Type.Member, optionally called: `core.Exact`,
// `words.Packing.AppendKeys`, `node.New(Config)`.
var docIdentifier = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\(.*\))?$`)

// TestDocsNameLiveIdentifiers fails when ARCHITECTURE.md or README.md
// names, in a code span, an identifier of an internal/ package that
// the package does not declare, so a rename or a deletion cannot leave
// the docs pointing at code that is gone. pkg.Name must be a type,
// func, const or var of the package, or a method or field of one of
// its types; pkg.Type.Member must be a method or field of that type,
// or a method of that interface.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	type pkgDecls struct {
		top     map[string]bool            // types, funcs, consts, vars
		members map[string]map[string]bool // type → its methods and fields
	}
	decls := make(map[string]*pkgDecls)
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if !dir.IsDir() {
			continue
		}
		p := &pkgDecls{top: map[string]bool{}, members: map[string]map[string]bool{}}
		member := func(typ, name string) {
			if p.members[typ] == nil {
				p.members[typ] = map[string]bool{}
			}
			p.members[typ][name] = true
		}
		files, err := filepath.Glob(filepath.Join("internal", dir.Name(), "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						p.top[d.Name.Name] = true
						continue
					}
					typ := d.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if g, ok := typ.(*ast.IndexExpr); ok {
						typ = g.X
					}
					member(typ.(*ast.Ident).Name, d.Name.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							p.top[s.Name.Name] = true
							var fields *ast.FieldList
							switch ty := s.Type.(type) {
							case *ast.StructType:
								fields = ty.Fields
							case *ast.InterfaceType:
								fields = ty.Methods
							}
							if fields == nil {
								continue
							}
							for _, f := range fields.List {
								for _, n := range f.Names {
									member(s.Name.Name, n.Name)
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								p.top[n.Name] = true
							}
						}
					}
				}
			}
		}
		decls[dir.Name()] = p
	}
	for _, doc := range []string{"ARCHITECTURE.md", "README.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := regexp.MustCompile("(?s)```.*?```").ReplaceAllString(string(data), "")
		for _, span := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(text, -1) {
			m := docIdentifier.FindStringSubmatch(span[1])
			if m == nil || decls[m[1]] == nil {
				continue
			}
			p, name, sub := decls[m[1]], m[2], m[3]
			live := p.top[name]
			if sub != "" {
				live = p.members[name][sub]
			} else {
				for _, members := range p.members {
					live = live || members[name]
				}
			}
			if !live {
				t.Errorf("%s: `%s` names no declaration in internal/%s", doc, span[1], m[1])
			}
		}
	}
}
