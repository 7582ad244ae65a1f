package rfd_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// orphanAllowlist names the exported declarations that no non-test file
// names but that stay, each with its reason. A key is "pkg.Name" for a
// top-level name and "pkg.Type.Member" for a method or struct field.
var orphanAllowlist = map[string]string{
	"analytic.TuneCutoff":          "paper result (X7); DESIGN.md and EXPERIMENTS.md cite it with TestTuneCutoffMovesOnset",
	"analytic.SuppressionOnset":    "paper result (onset at pulse 3 Cisco, 2 Juniper); EXPERIMENTS.md cites it with TestSuppressionOnset",
	"faults.NewPlan":               "public API; docs/faults.md builds a plan with it",
	"bgp.Router.DebugDampingState": "debug view; check and experiment tests read a router's damping state with it",
	"bgp.Router.LocalRoute":        "debug view; faults tests read a router's best route with it",
	"sim.WithMaxEvents":            "test seam; faults tests and damping's engine benchmark bound a kernel's event budget with it",
}

// docFiles are the documents whose code may name only what exists.
// CHANGES.md and ROADMAP.md record history and plans, so they are exempt.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md"}

// decl is one declaration in a library package: a top-level name (member
// empty), or a method or struct field of the type called name.
type decl struct {
	pkg, name, member string
	pos               token.Position
}

func (d decl) key() string {
	if d.member == "" {
		return d.pkg + "." + d.name
	}
	return d.pkg + "." + d.name + "." + d.member
}

// moduleIndex is what the module declares and what its non-test files name.
type moduleIndex struct {
	pkgs     map[string]bool // library package names
	exported []decl          // exported declarations of non-test library files
	declared map[string]bool // keys of every library declaration, test files included
	// named holds "pkg.Name" for each use of a library package's top-level
	// name, and ".Name" for each selector or composite-literal key.
	named map[string]bool
}

// goFile is one parsed file and the directory it sits in.
type goFile struct {
	dir  string
	test bool
	f    *ast.File
}

// buildIndex parses every Go file of the module rfd.
func buildIndex(t *testing.T) *moduleIndex {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{filepath.ToSlash(filepath.Dir(p)), strings.HasSuffix(p, "_test.go"), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	pkgOf := map[string]string{} // import path → package name, libraries only
	for _, g := range files {
		if !g.test && g.f.Name.Name != "main" {
			pkgOf[path.Join("rfd", g.dir)] = g.f.Name.Name
		}
	}
	ix := &moduleIndex{pkgs: map[string]bool{}, declared: map[string]bool{}, named: map[string]bool{}}
	for _, pkg := range pkgOf {
		if ix.pkgs[pkg] {
			t.Fatalf("two library packages are called %s", pkg)
		}
		ix.pkgs[pkg] = true
	}
	for _, g := range files {
		pkg, lib := pkgOf[path.Join("rfd", g.dir)]
		if lib {
			for _, d := range declsOf(g.f, fset) {
				d.pkg = pkg
				ix.declared[d.key()] = true
				if !g.test && ast.IsExported(d.name) && (d.member == "" || ast.IsExported(d.member)) {
					ix.exported = append(ix.exported, d)
				}
			}
		}
		if !g.test {
			ix.addNames(g.f, pkg, pkgOf)
		}
	}
	return ix
}

// declsOf lists f's top-level names and the methods and struct fields they
// declare, exported or not.
func declsOf(f *ast.File, fset *token.FileSet) []decl {
	var out []decl
	add := func(name, member string, id *ast.Ident) {
		out = append(out, decl{name: name, member: member, pos: fset.Position(id.Pos())})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name.Name, "", d.Name)
			} else {
				add(recvType(d.Recv.List[0].Type), d.Name.Name, d.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name.Name, "", s.Name)
					ast.Inspect(s.Type, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.StructType:
							for _, fld := range n.Fields.List {
								for _, id := range fld.Names {
									add(s.Name.Name, id.Name, id)
								}
							}
						case *ast.InterfaceType:
							for _, m := range n.Methods.List {
								for _, id := range m.Names {
									add(s.Name.Name, id.Name, id)
								}
							}
						case *ast.FuncType:
							return false // parameter names declare nothing here
						}
						return true
					})
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id.Name, "", id)
					}
				}
			}
		}
	}
	return out
}

// recvType is the name of a method's receiver type.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// addNames records what the non-test file f of package pkg names. A
// qualified lib.Name names that library's Name. An unqualified identifier in
// a library file names its own package's top-level Name, unless it sits in
// that name's own declaration: a function calling itself, or a method of T
// mentioning T, does not keep T alive. A selector or composite-literal key
// names every method and field so called.
func (ix *moduleIndex) addNames(f *ast.File, pkg string, pkgOf map[string]string) {
	imports := map[string]string{} // local name → library package name, "" for others
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if lib, ok := pkgOf[p]; ok {
			name = lib
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = pkgOf[p]
	}
	// A unit is one function or one spec of a const, var or type block.
	type unit struct {
		node ast.Node
		self string       // the name the unit declares: a method's receiver type
		decl []*ast.Ident // identifiers that declare, not name
	}
	var units []unit
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			self := d.Name.Name
			if d.Recv != nil {
				self = recvType(d.Recv.List[0].Type)
			}
			units = append(units, unit{d, self, []*ast.Ident{d.Name}})
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					units = append(units, unit{s, s.Name.Name, []*ast.Ident{s.Name}})
				case *ast.ValueSpec:
					for _, id := range s.Names {
						units = append(units, unit{s, id.Name, s.Names})
					}
				}
			}
		}
	}
	for _, u := range units {
		skip := map[*ast.Ident]bool{}
		for _, id := range u.decl {
			skip[id] = true
		}
		ast.Inspect(u.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if lib, ok := imports[x.Name]; ok {
						if lib != "" {
							ix.named[lib+"."+n.Sel.Name] = true
						}
						return false
					}
				}
				ix.named["."+n.Sel.Name] = true
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok {
					ix.named["."+k.Name] = true
				}
			case *ast.Ident:
				if pkg != "" && !skip[n] && n.Name != u.self {
					ix.named[pkg+"."+n.Name] = true
				}
			}
			return true
		})
	}
}

// TestExportedNamesHaveCallers fails for each exported function, method,
// type, const, var or struct field of a library package that no non-test
// file of the module names, unless orphanAllowlist keeps it. A method or
// field counts as named when any selector or composite-literal key has its
// name, so the check may miss an orphan but never reports a used name.
func TestExportedNamesHaveCallers(t *testing.T) {
	ix := buildIndex(t)
	orphans := map[string]bool{}
	for _, d := range ix.exported {
		named := ix.named[d.pkg+"."+d.name]
		if d.member != "" {
			named = ix.named["."+d.member]
		}
		if named {
			continue
		}
		orphans[d.key()] = true
		if _, ok := orphanAllowlist[d.key()]; !ok {
			t.Errorf("%s: %s is exported but no non-test file names it; delete it or allowlist it with a reason", d.pos, d.key())
		}
	}
	for k := range orphanAllowlist {
		if !orphans[k] {
			t.Errorf("orphanAllowlist: %s is named or no longer declared; drop its entry", k)
		}
	}
}

// docRef matches pkg.Name, pkg.Type.Member and pkg.(*Type).Member. Name is
// exported, so metric names such as sim.events and file names such as
// trace.jsonl do not match.
var docRef = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.(?:\(\*?([A-Z]\w*)\)|([A-Z]\w*))(?:\.(\w+))?`)

// TestDocsNameOnlyWhatExists fails for each pkg.Name, pkg.Type.Member or
// pkg.(*Type).Member in a document's inline code or code blocks that names
// no declaration of that library package, test files included.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	ix := buildIndex(t)
	var docs []string
	for _, pattern := range docFiles {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, m...)
	}
	checked := 0
	for _, doc := range docs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		for _, span := range codeSpans(text) {
			for _, m := range docRef.FindAllStringSubmatchIndex(text[span[0]:span[1]], -1) {
				group := func(i int) string {
					if m[2*i] < 0 {
						return ""
					}
					return text[span[0]+m[2*i] : span[0]+m[2*i+1]]
				}
				pkg, name, member := group(1), group(2)+group(3), group(4)
				if !ix.pkgs[pkg] {
					continue
				}
				checked++
				ref := pkg + "." + name
				ok := ix.declared[ref]
				if ok && member != "" {
					ref += "." + member
					ok = ix.declared[ref]
				}
				if !ok {
					line := 1 + strings.Count(text[:span[0]+m[0]], "\n")
					t.Errorf("%s:%d: `%s` names no declaration", doc, line, ref)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no pkg.Name reference found in any document; is the code-span scan broken?")
	}
}

// codeSpans returns the byte ranges of a Markdown text's fenced code blocks
// and inline code spans. An inline span may wrap a line.
func codeSpans(text string) [][2]int {
	var spans [][2]int
	prose := []byte(text) // text with fenced blocks blanked out
	off, fenced := 0, false
	for _, line := range strings.SplitAfter(text, "\n") {
		fence := strings.HasPrefix(strings.TrimSpace(line), "```")
		if fence {
			fenced = !fenced
		} else if fenced {
			spans = append(spans, [2]int{off, off + len(line)})
		}
		if fence || fenced {
			for i := off; i < off+len(line); i++ {
				prose[i] = ' '
			}
		}
		off += len(line)
	}
	for i := 0; ; {
		a := bytes.IndexByte(prose[i:], '`')
		if a < 0 {
			return spans
		}
		b := bytes.IndexByte(prose[i+a+1:], '`')
		if b < 0 {
			return spans
		}
		spans = append(spans, [2]int{i + a + 1, i + a + 1 + b})
		i += a + b + 2
	}
}
