package repro

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// listedPackage is the part of one `go list -json` record the unused-name
// checker and TestArchitectureRules read.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Export       string
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Deps         []string
	TestImports  []string
	XTestImports []string
	Module       *struct{ Main bool }
}

// goListed holds goList's results by directory and arguments: the load,
// which builds the export data of every package, is made once for
// TestNoUnusedExports and TestArchitectureRules.
var goListed = map[string][]*listedPackage{}

// goList runs the go tool's list command in dir and decodes its stream of
// JSON records.
func goList(t *testing.T, dir string, args ...string) []*listedPackage {
	t.Helper()
	key := dir + "\x00" + strings.Join(args, "\x00")
	if pkgs, ok := goListed[key]; ok {
		return pkgs
	}
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), append([]string{"list", "-export", "-deps", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			goListed[key] = pkgs
			return pkgs
		} else if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
}

// importFunc adapts a function to types.Importer.
type importFunc func(path string) (*types.Package, error)

func (f importFunc) Import(path string) (*types.Package, error) { return f(path) }

// checkedFiles is one type-checked set of files.
type checkedFiles struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// unusedNames is what findUnusedNames reports, as import path + "." +
// name, with the receiver's type name between the two for a method.
type unusedNames struct {
	dead  []string // nothing counted references them
	local []string // exported, but only their own package uses them
}

// findUnusedNames type-checks the non-test Go files of every package the
// modules in dirs list, and reports the top-level names of dirs[0]'s
// module that have no caller (see TestNoUnusedExports for what counts as
// one).
func findUnusedNames(t *testing.T, dirs ...string) unusedNames {
	t.Helper()
	listed := map[string]*listedPackage{}
	reported := map[string]bool{}
	for i, dir := range dirs {
		pkgs := goList(t, dir, "./...")
		for _, p := range pkgs {
			if listed[p.ImportPath] == nil {
				listed[p.ImportPath] = p
			}
			if i == 0 && !p.Standard && p.Module != nil && p.Module.Main {
				reported[p.ImportPath] = true
			}
		}
		// The standard packages only tests import, for the black-box
		// tests' type check.
		var missing []string
		for _, p := range pkgs {
			for _, path := range append(p.TestImports, p.XTestImports...) {
				if listed[path] == nil {
					missing = append(missing, path)
				}
			}
		}
		if len(missing) > 0 {
			for _, p := range goList(t, dir, missing...) {
				if listed[p.ImportPath] == nil {
					listed[p.ImportPath] = p
				}
			}
		}
	}

	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(listed[path].Export)
	})
	parse := func(dir string, names []string) []*ast.File {
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		return files
	}
	// check type-checks files as the package path. Strictly for
	// production code; leniently for black-box tests, whose package under
	// test is a variant with its in-package test files, which the
	// packages they import in common with it do not see.
	check := func(path string, files []*ast.File, imp types.Importer, lenient bool) checkedFiles {
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
		if lenient {
			conf.Error = func(error) {}
		}
		pkg, err := conf.Check(path, fset, files, info)
		if err != nil && !lenient {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		return checkedFiles{pkg, info, files}
	}
	checked := map[string]checkedFiles{}
	var order []string
	var imp importFunc
	imp = func(path string) (*types.Package, error) {
		p := listed[path]
		if p == nil || p.Standard {
			return gc.Import(path)
		}
		if c, ok := checked[path]; ok {
			return c.pkg, nil
		}
		checked[path] = check(path, parse(p.Dir, p.GoFiles), imp, false)
		order = append(order, path)
		return checked[path].pkg, nil
	}
	for path, p := range listed {
		if !p.Standard {
			imp(path)
		}
	}
	sort.Strings(order)

	ours := func(obj types.Object) bool {
		return obj != nil && obj.Pkg() != nil && checked[obj.Pkg().Path()].pkg == obj.Pkg()
	}

	// The top-level names: package-scope objects and the methods of the
	// named non-interface types among them. fieldOwner maps a struct
	// field to the named type that declares it.
	var decls []types.Object
	fieldOwner := map[types.Object]types.Object{}
	for _, path := range order {
		scope := checked[path].pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if name == "main" && checked[path].pkg.Name() == "main" {
				continue
			}
			decls = append(decls, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					fieldOwner[st.Field(i)] = tn
				}
			}
			if types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				decls = append(decls, named.Method(i))
			}
		}
	}

	// refs: top-level name → the names its declaration references (nil
	// holds the roots: main, init, blank variables, the root package's
	// Example). usedIn: name → the packages whose files reference it.
	// ifaces: every interface type a production file names or calls
	// through.
	refs := map[types.Object][]types.Object{}
	usedIn := map[types.Object]map[string]bool{}
	ifaces := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	scan := func(c checkedFiles, from types.Object, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := c.info.Uses[id]
			if owner, ok := fieldOwner[obj]; ok {
				obj = owner
			} else if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if !ours(obj) || obj == from || obj.Parent() != nil && obj.Parent() != obj.Pkg().Scope() {
				return true
			}
			refs[from] = append(refs[from], obj)
			if usedIn[obj] == nil {
				usedIn[obj] = map[string]bool{}
			}
			usedIn[obj][c.pkg.Path()] = true
			return true
		})
	}
	scanFiles := func(c checkedFiles, root bool) {
		for _, tv := range c.info.Types {
			if tv.Type == nil {
				continue
			}
			addIface(tv.Type)
			if sig, ok := tv.Type.(*types.Signature); ok {
				for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
					for i := 0; i < tuple.Len(); i++ {
						addIface(tuple.At(i).Type())
					}
				}
			}
		}
		for _, f := range c.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					from := c.info.Defs[d.Name]
					if root || d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && c.pkg.Name() == "main") {
						from = nil
					}
					scan(c, from, d.Type)
					if d.Body != nil {
						scan(c, from, d.Body)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							from := c.info.Defs[s.Name]
							if root {
								from = nil
							}
							scan(c, from, s)
						case *ast.ValueSpec:
							for _, name := range s.Names {
								from := c.info.Defs[name]
								if root || name.Name == "_" {
									from = nil
								}
								if s.Type != nil {
									scan(c, from, s.Type)
								}
								for _, v := range s.Values {
									scan(c, from, v)
								}
							}
						}
					}
				}
			}
		}
	}
	for _, path := range order {
		scanFiles(checked[path], false)
	}
	// The root package's Example is the README quickstart: a caller.
	root, err := filepath.Abs(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	for path, p := range listed {
		if reported[path] && p.Dir == root {
			for _, name := range p.XTestGoFiles {
				if name == "example_test.go" {
					scanFiles(check(path+"_test", parse(p.Dir, []string{name}), imp, false), true)
				}
			}
		}
	}

	// What a package's black-box tests use, by name: they see a variant
	// of the package with its in-package test files.
	xtestUses := map[string]bool{}
	for _, path := range order {
		p := listed[path]
		if !reported[path] || len(p.XTestGoFiles) == 0 {
			continue
		}
		variant := check(path, parse(p.Dir, append(append([]string{}, p.GoFiles...), p.TestGoFiles...)), imp, true)
		xtest := check(path+"_test", parse(p.Dir, p.XTestGoFiles), importFunc(func(q string) (*types.Package, error) {
			if q == path {
				return variant.pkg, nil
			}
			return imp(q)
		}), true)
		for _, obj := range xtest.info.Uses {
			if obj.Pkg() == variant.pkg {
				xtestUses[nameOf(obj)] = true
			}
		}
	}

	// reach calls mark on every named type of ours reachable from t
	// through signatures, composite types and exported struct fields.
	var reach func(t types.Type, mark func(types.Object), seen map[types.Type]bool)
	reach = func(t types.Type, mark func(types.Object), seen map[types.Type]bool) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			if ours(t.Obj()) {
				mark(t.Origin().Obj())
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				reach(t.TypeArgs().At(i), mark, seen)
			}
		case *types.Pointer:
			reach(t.Elem(), mark, seen)
		case *types.Slice:
			reach(t.Elem(), mark, seen)
		case *types.Array:
			reach(t.Elem(), mark, seen)
		case *types.Chan:
			reach(t.Elem(), mark, seen)
		case *types.Map:
			reach(t.Key(), mark, seen)
			reach(t.Elem(), mark, seen)
		case *types.Signature:
			for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					reach(tuple.At(i).Type(), mark, seen)
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if t.Field(i).Exported() {
					reach(t.Field(i).Type(), mark, seen)
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				reach(t.Method(i).Type(), mark, seen)
			}
		}
	}
	// impl: a type's methods that implement a used interface.
	impl := map[types.Object][]types.Object{}
	viaIface := map[types.Object]bool{}
	for _, obj := range decls {
		if tn, ok := obj.(*types.TypeName); ok {
			impl[tn] = implementing(tn, ifaces)
			for _, m := range impl[tn] {
				viaIface[m] = true
			}
		}
	}
	// closure grows set from the names in work: a method brings its
	// receiver's type, a name the named types its type reaches, and, when
	// viaIfaces, a type the methods that implement a used interface.
	closure := func(set map[types.Object]bool, work []types.Object, viaRefs, viaIfaces bool) {
		mark := func(obj types.Object) {
			if !set[obj] {
				set[obj] = true
				work = append(work, obj)
			}
		}
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			if viaRefs {
				for _, r := range refs[obj] {
					mark(r)
				}
			}
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
				reach(fn.Type().(*types.Signature).Recv().Type(), mark, map[types.Type]bool{})
			}
			if tn, ok := obj.(*types.TypeName); ok {
				reach(tn.Type().Underlying(), mark, map[types.Type]bool{})
				if viaIfaces {
					for _, m := range impl[tn] {
						mark(m)
					}
				}
			} else if obj != nil {
				reach(obj.Type(), mark, map[types.Type]bool{})
			}
		}
	}

	// alive: everything the roots reach through declarations' references.
	alive := map[types.Object]bool{nil: true}
	closure(alive, []types.Object{nil}, true, true)
	// outside: what another package, or the package's own black-box
	// tests, references, with what that reaches through types.
	outside := map[types.Object]bool{}
	var work []types.Object
	for _, obj := range decls {
		external := xtestUses[nameOf(obj)]
		for path := range usedIn[obj] {
			external = external || path != obj.Pkg().Path()
		}
		if external {
			outside[obj] = true
			work = append(work, obj)
		}
	}
	closure(outside, work, false, false)

	var u unusedNames
	for _, obj := range decls {
		switch {
		case !reported[obj.Pkg().Path()]:
		case !alive[obj]:
			u.dead = append(u.dead, nameOf(obj))
		case obj.Exported() && !outside[obj] && !viaIface[obj]:
			u.local = append(u.local, nameOf(obj))
		}
	}
	sort.Strings(u.dead)
	sort.Strings(u.local)
	return u
}

// nameOf names a top-level object as the checker reports it.
func nameOf(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := types.Unalias(t).(*types.Named); ok {
				return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// dynamicMethods are the methods the standard library finds by a dynamic
// type assertion rather than through a parameter's interface type.
var dynamicMethods = map[string]bool{"String": true, "Error": true, "ServeHTTP": true, "MarshalJSON": true}

// implementing returns the methods of tn (declared or promoted) through
// which tn or *tn implements one of ifaces, and the dynamic ones it has.
func implementing(tn *types.TypeName, ifaces map[*types.Interface]bool) []types.Object {
	named, ok := tn.Type().(*types.Named)
	if !ok || types.IsInterface(named) || named.TypeParams().Len() > 0 {
		return nil
	}
	ptr := types.NewPointer(named)
	mset := types.NewMethodSet(ptr)
	var out []types.Object
	for i := 0; i < mset.Len(); i++ {
		if m := mset.At(i).Obj(); dynamicMethods[m.Name()] {
			out = append(out, m.(*types.Func).Origin())
		}
	}
	for it := range ifaces {
		if types.Implements(named, it) || types.Implements(ptr, it) {
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name()); obj != nil {
					out = append(out, obj.(*types.Func).Origin())
				}
			}
		}
	}
	return out
}
