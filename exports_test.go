package flexsfp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportKeep names exported declarations that stay without a non-test
// caller, each for a stated reason. A trailing * matches a name prefix.
var exportKeep = map[string]string{
	"packet.DHCPOpt*":          "protocol constants: the DHCP option registry, named in full",
	"packet.DNSType*":          "protocol constants: the DNS record types, named in full",
	"packet.ICMPv4Type*":       "protocol constants: the ICMPv4 message types, named in full",
	"packet.IPProtocolICMPv6":  "protocol constant: the IANA protocol number beside its siblings",
	"mgmt.PushError.Unwrap":    "called by errors.Is/As, never by name",
	"runner.Source.Int63":      "implements math/rand.Source; rand.Rand calls it",
	"packet.NewPacket":         "the layered decoder: the test oracle packet.View is fuzzed against",
	"packet.Packet.Layers":     "the layered decoder: the test oracle packet.View is fuzzed against",
	"packet.Packet.ErrorLayer": "the layered decoder: the test oracle packet.View is fuzzed against",
	"packet.Packet.Layer":      "the layered decoder: the test oracle packet.View is fuzzed against",
	"phy.GoodputBps":           "closed form the line-rate experiments will assert against",
	"phy.RequiredClockHz":      "closed form the line-rate experiments will assert against",
	"fpga.UnitLE":              "iota zero value of LogicUnit: the implicit unit of LE-reported designs",
}

// exportPending names exported declarations that only tests use today and
// that are still to be deleted, moved into a test file or given a
// production caller. The list only shrinks: the gate fails when an entry
// gains a caller or disappears, so it must be removed from here then.
var exportPending = []string{
	// Whole features only tests run.
	"switchsim.CrossConnect",
	"faults.Injector.LoseFrame", "faults.Injector.BitRot",
	"reliability.ComponentRepairViable", "cost.ProductionCostBand",
	"mgmt.Client.TernaryAdd", "mgmt.Client.TernaryClear", "mgmt.Fleet.Remove",
	"daemon.NewSimMember", "daemon.FleetController.ShardMembers",
	"phy.DDMThresholds.Evaluate", "phy.Diagnose", "phy.DefaultThresholds",
	"xdp.MovReg", "xdp.LdW", "xdp.StB", "xdp.Return",
	// Accessors, helpers and constants only tests read.
	"flexsfp.ActiveCore",
	"apps.dhcpSnoopApp.Binding", "apps.natApp.AddMapping",
	"baseline.Path",
	"core.Module.SetPuntHandler",
	"exp.Registry.SortedNames",
	"flash.Device.MaxWear", "flash.Device.SectorWear",
	"fpga.DeviceByName", "fpga.Resources.MemoryBits", "fpga.Resources.Scale",
	"opt.ScheduleCycles",
	"overlay.Controller.Endpoint",
	"packet.DHCPv4.MsgType", "packet.MustBuildARP",
	"packet.View.ARPOperation", "packet.View.ARPTargetIP", "packet.View.ARPTargetMAC",
	"packet.View.DHCPXID", "packet.View.DNSID", "packet.View.DNSQDCount",
	"phy.DataRateFromBaud", "phy.DefaultSRLink", "phy.FiberLink.Up",
	"phy.LineRateBaud", "phy.WireEfficiency",
	"telemetry.Gauge.SetInt", "telemetry.Registry.Gauge", "telemetry.Snapshot.Gauge",
	"telemetry.Tracer.Cap",
	"trafficgen.Generator.MeanFrameSize", "trafficgen.NewProfile", "trafficgen.Profiles",
}

// TestNoTestOnlyExports fails when an exported top-level name or method
// declared outside package main has no reference in non-test code other
// than its own declaration. Top-level names are matched by package;
// methods by name alone, since the scan does no type checking. cmd/,
// examples/ and benchmark/ count as callers.
func TestNoTestOnlyExports(t *testing.T) {
	decls, used := scanExports(t)
	var unused []string
	for key, name := range decls {
		if !used[name] {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	matched := map[string]bool{}
	for _, key := range unused {
		if entry, ok := exemptBy(key); ok {
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
	for _, entry := range exportPending {
		if !matched[entry] {
			t.Errorf("pending entry %s has a caller or is gone: remove it from exportPending", entry)
		}
	}
}

func exemptBy(key string) (string, bool) {
	for _, entry := range exportPending {
		if entry == key {
			return entry, true
		}
	}
	for entry := range exportKeep {
		if entry == key || strings.HasSuffix(entry, "*") && strings.HasPrefix(key, strings.TrimSuffix(entry, "*")) {
			return entry, true
		}
	}
	return "", false
}

// scanExports parses every non-test Go file of the module. It returns the
// checked declarations, keyed "pkg.Name" or "pkg.Type.Method" and mapped
// to the name a use must carry ("dir.Name" for a top-level name, ".Name"
// for a method), and the set of names used outside their declarations.
func scanExports(t *testing.T) (decls map[string]string, used map[string]bool) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // by module-relative directory
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		files[dir] = append(files[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	decls, used = map[string]string{}, map[string]bool{}
	for dir, pfiles := range files {
		pkg := pfiles[0].Name.Name
		for _, f := range pfiles {
			imports := map[string]string{} // local name → module-relative dir
			for _, im := range f.Imports {
				ip := strings.Trim(im.Path.Value, `"`)
				rel, ok := strings.CutPrefix(ip, "flexsfp/")
				if ip == "flexsfp" {
					rel, ok = ".", true
				}
				if !ok {
					continue
				}
				name := files[rel][0].Name.Name
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = rel
			}
			for _, decl := range f.Decls {
				if pkg != "main" {
					declare(decls, pkg, dir, decl)
				}
				markUses(used, dir, imports, decl)
			}
		}
	}
	return decls, used
}

func declare(decls map[string]string, pkg, dir string, decl ast.Decl) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return
		}
		if d.Recv == nil {
			decls[pkg+"."+d.Name.Name] = dir + "." + d.Name.Name
			return
		}
		recv := d.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if idx, ok := recv.(*ast.IndexExpr); ok {
			recv = idx.X
		}
		decls[pkg+"."+recv.(*ast.Ident).Name+"."+d.Name.Name] = "." + d.Name.Name
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() {
					decls[pkg+"."+s.Name.Name] = dir + "." + s.Name.Name
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() {
						decls[pkg+"."+n.Name] = dir + "." + n.Name
					}
				}
			}
		}
	}
}

// markUses records every name decl uses. A declaration's own name is not
// a use: its body and its spec are walked, not its name or receiver, and
// a function's uses of its own name (recursion) are dropped.
func markUses(used map[string]bool, dir string, imports map[string]string, decl ast.Decl) {
	own := map[*ast.Ident]bool{}
	walk := []ast.Node{decl}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		self := dir + "." + d.Name.Name
		if d.Recv != nil {
			self = "." + d.Name.Name
		}
		defer func(was bool) { used[self] = was }(used[self])
		walk = []ast.Node{d.Type}
		if d.Body != nil {
			walk = append(walk, d.Body)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				own[s.Name] = true
			case *ast.ValueSpec:
				for _, n := range s.Names {
					own[n] = true
				}
			}
		}
	}
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			used["."+n.Sel.Name] = true
			if x, ok := n.X.(*ast.Ident); ok {
				if rel, ok := imports[x.Name]; ok {
					used[rel+"."+n.Sel.Name] = true
					return false
				}
			}
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			if !own[n] {
				used[dir+"."+n.Name] = true
			}
		}
		return true
	}
	for _, n := range walk {
		ast.Inspect(n, visit)
	}
}
