package flexsfp

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// exportKeep names exported declarations that stay without a non-test
// caller, each for a stated reason. A trailing * matches a name prefix.
// An entry fits one of five categories: protocol constants; methods the
// standard library calls through an interface; the closed forms the
// experiments will assert against; the layered decoder, the test oracle
// packet.View is fuzzed against; and the zero value of an enum.
var exportKeep = map[string]string{
	"packet.DHCPOpt*":         "protocol constants: the DHCP option registry, named in full",
	"packet.DNSType*":         "protocol constants: the DNS record types, named in full",
	"packet.ICMPv4Type*":      "protocol constants: the ICMPv4 message types, named in full",
	"packet.IPProtocolICMPv6": "protocol constant: the IANA protocol number beside its siblings",

	"mgmt.PushError.Unwrap":      "called by errors.Is/As, never by name",
	"runner.Source.Seed":         "implements math/rand.Source; rand.Rand calls it",
	"fpga.Resources.String":      "fmt.Stringer: SmallestFitting's error formats a Resources with %v",
	"netsim.ShardedStats.String": "fmt.Stringer: the sharded experiments' progress lines format it with %v",
	"netsim.Time.String":         "fmt.Stringer: fmt calls it wherever a Time is formatted",
	"packet.DHCPMsgType.String":  "fmt.Stringer: fmt calls it wherever a DHCP message type is formatted",
	"packet.LayerType.String":    "fmt.Stringer: fmt calls it wherever a layer type is formatted",
	"telemetry.Stage.String":     "fmt.Stringer: flexsfp-ctl trace formats each event's stage with %s",
	"xdp.Op.String":              "fmt.Stringer: fmt calls it wherever an opcode is formatted",

	"phy.GoodputBps":         "closed form the line-rate experiments will assert against",
	"phy.RequiredClockHz":    "closed form the line-rate experiments will assert against",
	"ppe.Engine.CapacityPPS": "closed form the engine experiments will assert against",
	"ppe.Engine.Latency":     "closed form the engine experiments will assert against",

	"packet.NewPacket":         "the layered decoder: the test oracle packet.View is fuzzed against",
	"packet.Packet.Layers":     "the layered decoder: the test oracle packet.View is fuzzed against",
	"packet.Packet.ErrorLayer": "the layered decoder: the test oracle packet.View is fuzzed against",
	"packet.Packet.Layer":      "the layered decoder: the test oracle packet.View is fuzzed against",
	"packet.Packet.Data":       "the layered decoder: the test oracle packet.View is fuzzed against",

	"fpga.UnitLE": "iota zero value of LogicUnit: the implicit unit of LE-reported designs",
}

// TestNoTestOnlyExports fails when an exported top-level name or method
// declared outside package main has no use in non-test code other than
// its own declaration. cmd/, examples/ and benchmark/ count as callers.
func TestNoTestOnlyExports(t *testing.T) {
	unused, err := testOnlyExports(".")
	if err != nil {
		t.Fatal(err)
	}
	matched := map[string]bool{}
	for _, key := range unused {
		if entry, ok := keptBy(key); ok {
			matched[entry] = true
			continue
		}
		t.Errorf("%s has no caller outside tests: delete it, move it into the test that uses it, or give it a production caller", key)
	}
	for entry := range exportKeep {
		if !matched[entry] {
			t.Errorf("keep entry %s matches no test-only export: remove it from exportKeep", entry)
		}
	}
}

// TestExportGateFixture runs the scan over a module built to trip it: a
// method only a test calls is reported although a method of the same name
// on another type has a production caller, and a method reached only
// through an anonymous interface in a type assertion is not.
func TestExportGateFixture(t *testing.T) {
	unused, err := testOnlyExports(filepath.Join("testdata", "exportgate"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.A.QueueDepth"}; !slices.Equal(unused, want) {
		t.Errorf("fixture reports %q, want %q", unused, want)
	}
}

func keptBy(key string) (string, bool) {
	for entry := range exportKeep {
		if entry == key || strings.HasSuffix(entry, "*") && strings.HasPrefix(key, strings.TrimSuffix(entry, "*")) {
			return entry, true
		}
	}
	return "", false
}

// testOnlyExports type-checks the non-test files of the module rooted at
// root and returns, sorted, the exported declarations outside package
// main that no non-test file uses outside the declaration itself. Keys
// read "pkg.Name" or "pkg.Type.Method". A method also counts as used
// when code calls an interface method it implements, named or anonymous.
func testOnlyExports(root string) ([]string, error) {
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // by import path
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := path.Join(mod, filepath.ToSlash(rel))
		files[ip] = append(files[ip], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkgs := map[string]*types.Package{}
	std := importer.Default()
	var check func(ip string) (*types.Package, error)
	conf := types.Config{Importer: importerFunc(func(ip string) (*types.Package, error) {
		if _, ok := files[ip]; ok {
			return check(ip)
		}
		return std.Import(ip)
	})}
	check = func(ip string) (*types.Package, error) {
		if pkg, ok := pkgs[ip]; ok {
			return pkg, nil
		}
		pkg, err := conf.Check(ip, fset, files[ip], info)
		pkgs[ip] = pkg
		return pkg, err
	}
	for ip := range files {
		if _, err := check(ip); err != nil {
			return nil, err
		}
	}

	used := map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{} // of every interface method called
	for _, pfiles := range files {
		for _, f := range pfiles {
			for _, decl := range f.Decls {
				markUses(info, decl, used, ifaces)
			}
		}
	}

	var unused []string
	report := func(obj types.Object, key string) {
		if obj.Exported() && !used[obj] {
			unused = append(unused, key)
		}
	}
	for _, pkg := range pkgs {
		if pkg.Name() == "main" {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			report(obj, pkg.Name()+"."+name)
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok || named.Obj() != obj || types.IsInterface(named) {
				continue
			}
			for m := range named.Methods() {
				if !used[m] && reachedThroughInterface(named, m.Name(), ifaces) {
					continue
				}
				report(m, pkg.Name()+"."+name+"."+m.Name())
			}
		}
	}
	sort.Strings(unused)
	return unused, nil
}

// markUses records the objects decl uses. A function's or method's uses of
// itself (recursion) and of its receiver's type are not uses, nor are a
// type or value spec's uses of the names it defines. Every interface whose
// method decl calls is added to ifaces.
func markUses(info *types.Info, decl ast.Decl, used map[types.Object]bool, ifaces map[*types.Interface]bool) {
	mark := func(n ast.Node, own ...types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
				if recv := fn.Signature().Recv(); recv != nil {
					if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
						ifaces[iface] = true
					}
				}
			}
			if obj != nil && !slices.Contains(own, obj) {
				used[obj] = true
			}
			return true
		})
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		mark(d.Type, info.Defs[d.Name])
		if d.Body != nil {
			mark(d.Body, info.Defs[d.Name])
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			var own []types.Object
			switch s := spec.(type) {
			case *ast.TypeSpec:
				own = append(own, info.Defs[s.Name])
			case *ast.ValueSpec:
				for _, n := range s.Names {
					own = append(own, info.Defs[n])
				}
			}
			mark(spec, own...)
		}
	}
}

// reachedThroughInterface reports whether T or *T implements one of
// ifaces that has a method called name.
func reachedThroughInterface(named *types.Named, name string, ifaces map[*types.Interface]bool) bool {
	ptr := types.NewPointer(named)
	for iface := range ifaces {
		for m := range iface.Methods() {
			if m.Name() == name && (types.Implements(named, iface) || types.Implements(ptr, iface)) {
				return true
			}
		}
	}
	return false
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for line := range strings.Lines(string(data)) {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(mod), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
