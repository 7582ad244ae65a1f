package rfd_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/fstest"
)

// orphanAllowlist names the exported declarations that no non-test code uses
// but that stay, each with a reason that names their callers. A key is
// "pkg.Name" for a top-level name and "pkg.Type.Member" for a method or
// struct field.
var orphanAllowlist = map[string]string{
	"analytic.TuneCutoff":          "paper result (X7); DESIGN.md and EXPERIMENTS.md cite it with TestTuneCutoffMovesOnset",
	"analytic.SuppressionOnset":    "paper result (onset at pulse 3 Cisco, 2 Juniper); EXPERIMENTS.md cites it with TestSuppressionOnset",
	"faults.NewPlan":               "public API; docs/faults.md builds a plan with it",
	"bgp.Router.DebugDampingState": "debug view; check and experiment tests read a router's damping state with it",
	"bgp.Router.LocalRoute":        "debug view; faults tests read a router's best route with it",
	"sim.WithMaxEvents":            "test seam; faults tests and damping's engine benchmark bound a kernel's event budget with it",
	"rcn.History.Len":              "test probe; rcn's history tests and bgp's TestRCNHistoryUnderChurn count a history's causes with it",
	// The Wheel goes with the sharded engine (ROADMAP item 3); until then
	// its own tests and benchmark drive these.
	"damping.Wheel.Config":        "BenchmarkDampingEngines reads the reuse tick with it in its wheel sweeps",
	"damping.Wheel.Reset":         "TestWheelResetDiscardsStates drives it",
	"damping.WheelState.Penalty":  "TestWheelPenaltyBandAgainstExact compares it with the exact engine's",
	"damping.WheelState.Reset":    "TestWheelStateResetDetaches drives it",
	"damping.WheelState.TryReuse": "TestWheelTryReuseMatchesExactSemantics drives it",
}

// docFiles are the documents whose code may name only what exists.
// CHANGES.md and ROADMAP.md record history and plans, so they are exempt.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md"}

// decl is one declaration in a library package: a top-level name (member
// empty), or a method or struct field of the type called name.
type decl struct {
	pkg, name, member string
	id                *ast.Ident
	pos               token.Position
}

func (d decl) key() string {
	if d.member == "" {
		return d.pkg + "." + d.name
	}
	return d.pkg + "." + d.name + "." + d.member
}

// moduleIndex is what the module declares and what its non-test code uses,
// resolved by type.
type moduleIndex struct {
	pkgs     map[string]bool // library package names
	exported []decl          // exported declarations of non-test library files
	declared map[string]bool // keys of every library declaration, test files included
	defs     map[*ast.Ident]types.Object
	used     map[types.Object]bool // what non-test code uses, generic objects by their origin
}

var (
	moduleOnce sync.Once
	module     *moduleIndex
	moduleErr  error
)

// loadModule indexes the module rfd once per test binary.
func loadModule(t *testing.T) *moduleIndex {
	t.Helper()
	moduleOnce.Do(func() { module, moduleErr = buildIndex(os.DirFS(".")) })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return module
}

// goPkg is the parsed Go files of one directory.
type goPkg struct {
	name        string // the non-test files' package name
	files, test []*ast.File
}

// buildIndex parses every Go file of the module rfd rooted at fsys and
// type-checks its non-test files, standard-library imports read from their
// export data.
func buildIndex(fsys fs.FS) (*moduleIndex, error) {
	fset := token.NewFileSet()
	dirs := map[string]*goPkg{} // import path → files
	var order []string          // import paths in walk order, which is lexical
	err := fs.WalkDir(fsys, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join("rfd", path.Dir(p))
		g := dirs[ip]
		if g == nil {
			g = &goPkg{}
			dirs[ip] = g
			order = append(order, ip)
		}
		if strings.HasSuffix(p, "_test.go") {
			g.test = append(g.test, f)
		} else {
			g.files = append(g.files, f)
			g.name = f.Name.Name
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	ix := &moduleIndex{pkgs: map[string]bool{}, declared: map[string]bool{}, used: map[types.Object]bool{}}
	var std []string
	for _, ip := range order {
		g := dirs[ip]
		for _, f := range g.files {
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p != "rfd" && !strings.HasPrefix(p, "rfd/") {
					std = append(std, p)
				}
			}
		}
		if len(g.files) == 0 || g.name == "main" {
			continue
		}
		if ix.pkgs[g.name] {
			return nil, fmt.Errorf("two library packages are called %s", g.name)
		}
		ix.pkgs[g.name] = true
		for i, f := range append(slices.Clip(g.files), g.test...) {
			test := i >= len(g.files)
			for _, d := range declsOf(f, fset) {
				d.pkg = g.name
				ix.declared[d.key()] = true
				if !test && ast.IsExported(d.name) && (d.member == "" || ast.IsExported(d.member)) {
					ix.exported = append(ix.exported, d)
				}
			}
		}
	}

	slices.Sort(std)
	std = slices.Compact(std)
	stdImp, err := exportDataImporter(fset, std)
	if err != nil {
		return nil, err
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Instances: map[*ast.Ident]types.Instance{}}
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(ip string) (*types.Package, error) {
		if pkg, ok := checked[ip]; ok {
			return pkg, nil
		}
		g, ok := dirs[ip]
		if !ok || len(g.files) == 0 {
			return stdImp.Import(ip)
		}
		conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
		pkg, err := conf.Check(ip, fset, g.files, info)
		checked[ip] = pkg
		return pkg, err
	}
	for _, ip := range order {
		if len(dirs[ip].files) == 0 {
			continue
		}
		if _, err := imp(ip); err != nil {
			return nil, err
		}
	}
	ix.defs = info.Defs
	for _, g := range dirs {
		for _, f := range g.files {
			ix.addUses(f, info)
		}
	}
	// The standard library calls, through its own interfaces, the methods
	// that implement them: fmt a String, sort a Less.
	libIfaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, ip := range std {
		pkg, err := stdImp.Import(ip)
		if err != nil {
			return nil, err
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
					libIfaces = append(libIfaces, iface)
				}
			}
		}
	}
	ix.addInterfaceCalls(info, libIfaces)
	return ix, nil
}

// importerFunc is a types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportDataImporter imports the standard-library packages paths from the
// export data that one go list run finds or builds for them.
func exportDataImporter(fset *token.FileSet, paths []string) (types.Importer, error) {
	export := map[string]string{}
	if len(paths) > 0 {
		out, err := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}, paths...)...).Output()
		if err != nil {
			return nil, fmt.Errorf("go list -export: %w", err)
		}
		for _, line := range strings.Fields(string(out)) {
			ip, file, _ := strings.Cut(line, "=")
			export[ip] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(ip string) (io.ReadCloser, error) {
		file, ok := export[ip]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", ip)
		}
		return os.Open(file)
	}), nil
}

// origin is the declared object behind a use: the generic function, method
// or field an instantiated one comes from.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// addUses records what the non-test file f uses. A use inside the user's own
// declaration does not count: a function calling itself, or a method of T
// mentioning T, does not keep it alive.
func (ix *moduleIndex) addUses(f *ast.File, info *types.Info) {
	for _, d := range f.Decls {
		self := map[types.Object]bool{}
		switch d := d.(type) {
		case *ast.FuncDecl:
			self[info.Defs[d.Name]] = true
			if d.Recv != nil {
				if id := recvIdent(d.Recv.List[0].Type); id != nil {
					self[info.Uses[id]] = true
				}
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					self[info.Defs[s.Name]] = true
				case *ast.ValueSpec:
					for _, id := range s.Names {
						self[info.Defs[id]] = true
					}
				}
			}
		}
		ast.Inspect(d, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && !self[obj] {
					ix.used[origin(obj)] = true
				}
			}
			return true
		})
	}
}

// addInterfaceCalls marks every method that implements a used interface
// method, or any method of an interface in lib: a call through the interface
// may reach it. Promoted methods count, and so do a generic type's methods,
// through each instance non-test code names.
func (ix *moduleIndex) addInterfaceCalls(info *types.Info, lib []*types.Interface) {
	called := map[*types.Interface][]*types.Func{}
	for _, iface := range lib {
		for i := range iface.NumMethods() {
			called[iface] = append(called[iface], iface.Method(i))
		}
	}
	for obj := range ix.used {
		if m, ok := obj.(*types.Func); ok {
			if recv := m.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					called[iface] = append(called[iface], m)
				}
			}
		}
	}
	var concrete []types.Type // pointers to the module's named non-interface types
	add := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && !types.IsInterface(n) && (n.TypeParams() == nil || n.TypeArgs() != nil) {
			concrete = append(concrete, types.NewPointer(n))
		}
	}
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			add(tn.Type())
		}
	}
	for _, inst := range info.Instances {
		add(inst.Type)
	}
	for iface, methods := range called {
		for _, t := range concrete {
			if !types.Implements(t, iface) {
				continue
			}
			mset := types.NewMethodSet(t)
			for _, m := range methods {
				if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
					ix.used[origin(sel.Obj())] = true
				}
			}
		}
	}
}

// declsOf lists f's top-level names and the methods and struct fields they
// declare, exported or not.
func declsOf(f *ast.File, fset *token.FileSet) []decl {
	var out []decl
	add := func(name, member string, id *ast.Ident) {
		out = append(out, decl{name: name, member: member, id: id, pos: fset.Position(id.Pos())})
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name.Name, "", d.Name)
			} else if id := recvIdent(d.Recv.List[0].Type); id != nil {
				add(id.Name, d.Name.Name, d.Name)
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

// recvIdent is the identifier naming a method's receiver type.
func recvIdent(e ast.Expr) *ast.Ident {
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
			return x
		default:
			return nil
		}
	}
}

// orphans lists the exported declarations of library packages that no
// non-test code uses: a top-level name or struct field no one names, a
// method no one calls directly or through an interface it implements.
func (ix *moduleIndex) orphans() []decl {
	var out []decl
	for _, d := range ix.exported {
		if !ix.used[ix.defs[d.id]] {
			out = append(out, d)
		}
	}
	return out
}

// TestExportedNamesHaveCallers fails for each exported function, method,
// type, const, var or struct field of a library package that no non-test
// code of the module (bench, cmd and examples included) uses, unless
// orphanAllowlist keeps it.
func TestExportedNamesHaveCallers(t *testing.T) {
	ix := loadModule(t)
	orphans := map[string]bool{}
	for _, d := range ix.orphans() {
		orphans[d.key()] = true
		if _, ok := orphanAllowlist[d.key()]; !ok {
			t.Errorf("%s: %s is exported but no non-test code uses it; delete it or allowlist it with a reason", d.pos, d.key())
		}
	}
	for k := range orphanAllowlist {
		if !orphans[k] {
			t.Errorf("orphanAllowlist: %s is used or no longer declared; drop its entry", k)
		}
	}
}

// indexFixture is a module in which each rule of the index decides one
// method: bench drives a kernel through its pulser interface the way main
// calls RunUntil, and lru's cache is generic like Box.
var indexFixture = fstest.MapFS{
	"lib/lib.go": {Data: []byte(`package lib

type Runner interface{ RunUntil(t int) error }

type Kernel struct{ now int }

func (k *Kernel) RunUntil(t int) error { k.now = t; return nil }

type Box[T any] struct{ v T }

func (b *Box[T]) Get() T { return b.v }

func (b *Box[T]) Tested() T { return b.v }
`)},
	"lib/lib_test.go": {Data: []byte(`package lib

func use() { _ = new(Box[int]).Tested() }
`)},
	"cmd/use/main.go": {Data: []byte(`package main

import "rfd/lib"

func main() {
	var r lib.Runner = &lib.Kernel{}
	_ = r.RunUntil(1)
	_ = new(lib.Box[string]).Get()
}
`)},
}

// TestIndexRules runs the index over indexFixture, one rule per row.
func TestIndexRules(t *testing.T) {
	ix, err := buildIndex(indexFixture)
	if err != nil {
		t.Fatal(err)
	}
	orphans := map[string]string{} // key → position
	for _, d := range ix.orphans() {
		orphans[d.key()] = d.pos.String()
	}
	for _, tc := range []struct {
		rule, key, pos string // pos is empty for a used method
	}{
		{"a method reached only through an interface is used", "lib.Kernel.RunUntil", ""},
		{"a generic type's method is used through its origin", "lib.Box.Get", ""},
		{"a method only a test calls is reported at its file and line", "lib.Box.Tested", "lib/lib.go:13:18"},
	} {
		if got := orphans[tc.key]; got != tc.pos {
			t.Errorf("%s: %s reported at %q, want %q", tc.rule, tc.key, got, tc.pos)
		}
	}
	if len(orphans) != 1 {
		t.Errorf("orphans %v, want lib.Box.Tested alone", orphans)
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
	ix := loadModule(t)
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
