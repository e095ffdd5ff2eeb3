// Dead-API gate: every exported function and method under internal/
// must be reached from the code that ships — the non-test files of
// this module (cmd/, internal/) and of the bench/ module — and every
// exported field of an exported internal/ struct must be written by
// it: a knob that only tests set is dead configuration. The gate
// type-checks those packages and follows resolved objects, so a dead
// method is caught even when another type has a live method of the
// same name.
package repro

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names exported internal/ functions and methods that
// no shipped code reaches, and exported fields that no shipped code
// writes, but that stay on purpose, each with its reason: tests use
// them as a reference, to observe model state that has no other
// accessor, or to shrink the model. Keys are "pkg.Func",
// "pkg.Type.Method" or "pkg.Type.Field". An entry the gate would not
// flag (a caller or writer appeared, or the name is gone) fails as
// stale, so the list holds only what it must.
var exportAllowlist = map[string]string{
	"sim.Engine.Stop":                   "stops a run early to test draining after Ctrl-C",
	"sim.Engine.SetStopTime":            "absolute run limit for engine-level tests",
	"sim.Engine.Procs":                  "live process count, pins that procs exit",
	"wire.Link.IsDown":                  "administrative link state under link-flap faults",
	"nic.Port.SetTxTrace":               "departure instants and bytes: TestDatapathMatchesOracle checks them against the per-frame oracle, TestEmittedFrameDigests hashes them",
	"dut.Forwarder.Backlog":             "DuT queue depth under overload",
	"dut.Forwarder.MeanInternalLatency": "DuT sojourn time, the ~2 ms overload latency",
	"rate.GapFiller.Debt":               "unrepresented gap debt of the CRC-gap filler",
	"fault.Injector.Scheduled":          "number of fault events armed from a schedule",
	"fault.Injector.LastRecoveryNS":     "recovery instant of the last fault",
	"ptpclk.Clock.Tick":                 "clock register granularity",
	"ptpclk.Clock.Offset":               "offset from true time, what the drift and clock-step tests observe",
	"flow.Tracker.Flows":                "every per-flow record in key order, what the flow and flow-sink tests inspect",
	"mempool.Pool.Count":                "pool size, the Available == Count leak check",
	"mempool.Pool.Stats":                "alloc/free totals the shared TX pool leak test compares",
	"stats.Histogram.Mean":              "sample mean the merge-property, flow-merge and timestamper tests compare",
	"stats.Histogram.Std":               "spread the histogram merge property compares",
	"telemetry.Recorder.Windows":        "windows recorded, what the telemetry tests and overhead benchmark check",
	"proto.UDPPacket.CalcChecksums":     "software reference the UDP checksum-offload tests and BenchmarkTable1OffloadUDP compare against",
	"proto.UDPPacket.VerifyChecksums":   "checks frames the NIC's UDP checksum offload wrote",
	"proto.TCPPacket.CalcChecksums":     "software reference the TCP checksum-offload tests and BenchmarkTable1OffloadTCP compare against",
	"proto.TCPPacket.VerifyChecksums":   "checks frames the NIC's TCP checksum offload wrote",
	"proto.Template.CalcIPChecksum":     "full-recompute reference TestTemplateIncrementalChecksums pins the RFC 1624 path against",
	"proto.Template.TransportChecksum":  "full-recompute reference for the template's transport checksum",
	"proto.Template.SetIPSrc":           "RFC 1624 address update TestTemplateIncrementalChecksums pins",
	"proto.Template.SetIPID":            "RFC 1624 field update TestTemplateIncrementalChecksums pins",
	"stats.Histogram.Bins":              "non-empty bins in ascending order, what the histogram merge and flow-table reference tests compare",
	"core.DeviceConfig.TxRing":          "descriptor ring size; tests shrink the TX ring so a short run fills it",
	"core.DeviceConfig.DriftPPM":        "PTP clock drift the timestamper's per-probe resync test (§6.3) sets",
	"core.Timestamper.UDP":              "UDP PTP probes, whose 80-byte timestamping floor (§6.4) the timestamper test pins",
	"proto.TCPPacketFill.SeqNum":        "nonzero sequence numbers the TCP fill and checksum-patch tests write; shipped TCP frames carry 0",
	"proto.TCPPacketFill.AckNum":        "nonzero acknowledgment number the TCP fill test writes; shipped TCP frames carry 0",
}

// srcPkg is one package of shipped source, parsed but not yet checked.
type srcPkg struct {
	path    string // import path
	files   []*ast.File
	imports []string
}

// shippedPackages parses the non-test files of every package of this
// module and of the bench/ module, skipping testdata and hidden
// directories and honouring build constraints.
func shippedPackages(t *testing.T, fset *token.FileSet) []*srcPkg {
	t.Helper()
	var pkgs []*srcPkg
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		p := &srcPkg{path: path.Join("repro", filepath.ToSlash(dir)), imports: bp.Imports}
		for _, f := range bp.GoFiles {
			af, err := parser.ParseFile(fset, filepath.Join(dir, f), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, af)
		}
		pkgs = append(pkgs, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// checkedImporter resolves repro/... paths to packages checked earlier
// in the same run and everything else (the standard library) through
// the compiler's export data.
type checkedImporter struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (im checkedImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.checked[path]; ok {
		return p, nil
	}
	return im.std.Import(path)
}

// deadAPI is one exported name the gate flags: where it is declared
// and what shipped code fails to do with it.
type deadAPI struct {
	pos   token.Position
	fault string
}

// deadExports type-checks pkgs in dependency order and returns, keyed
// "pkg.Func", "pkg.Type.Method" or "pkg.Type.Field", every exported
// function and method declared in a package under repro/internal/
// that no resolved use in pkgs reaches, and every exported field of an
// exported struct type declared there that no code in pkgs writes (see
// markWrites). A use inside the function's own body does not count. A
// method also counts as reached when it implements an interface
// method that is called through the interface; String and Error
// always count, because fmt calls them.
func deadExports(fset *token.FileSet, pkgs []*srcPkg) (map[string]deadAPI, error) {
	byPath := map[string]*srcPkg{}
	for _, p := range pkgs {
		byPath[p.path] = p
	}
	im := checkedImporter{checked: map[string]*types.Package{}, std: importer.Default()}
	uses := map[*ast.Ident]types.Object{}
	info := &types.Info{Uses: uses, Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	decls := map[*types.Func]*ast.FuncDecl{}
	fields := map[*types.Var]string{} // exported fields of exported internal/ structs, keyed "pkg.Type.Field"
	var check func(p *srcPkg) error
	check = func(p *srcPkg) error {
		if _, done := im.checked[p.path]; done {
			return nil
		}
		for _, dep := range p.imports {
			if d, ok := byPath[dep]; ok {
				if err := check(d); err != nil {
					return err
				}
			}
		}
		defs := map[*ast.Ident]types.Object{}
		info.Defs = defs
		tp, err := (&types.Config{Importer: im}).Check(p.path, fset, p.files, info)
		if err != nil {
			return err
		}
		im.checked[p.path] = tp
		if !strings.HasPrefix(p.path, "repro/internal/") {
			return nil
		}
		for _, name := range tp.Scope().Names() {
			tn, ok := tp.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						fields[f] = tp.Name() + "." + name + "." + f.Name()
					}
				}
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					decls[defs[fd.Name].(*types.Func)] = fd
				}
			}
		}
		return nil
	}
	for _, p := range pkgs {
		if err := check(p); err != nil {
			return nil, err
		}
	}

	fmtPkg, err := im.Import("fmt")
	if err != nil {
		return nil, err
	}
	used := map[*types.Func]bool{}
	called := map[*types.Func]bool{} // interface methods something may call
	for _, t := range []types.Type{fmtPkg.Scope().Lookup("Stringer").Type(), types.Universe.Lookup("error").Type()} {
		called[t.Underlying().(*types.Interface).Method(0)] = true
	}
	for id, obj := range uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if fd := decls[fn]; fd != nil && fd.Pos() <= id.Pos() && id.Pos() < fd.End() {
			continue
		}
		used[fn] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			called[fn] = true
		}
	}

	dead := map[string]deadAPI{}
	for fn, fd := range decls {
		if !used[fn] && !implementsCalled(fn, called) {
			dead[funcKey(fn)] = deadAPI{fset.Position(fd.Name.Pos()), "has no caller outside tests"}
		}
	}

	written := map[*types.Var]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			markWrites(info, f, written)
		}
	}
	for f, key := range fields {
		if !written[f] {
			dead[key] = deadAPI{fset.Position(f.Pos()), "is written by no shipped code"}
		}
	}
	return dead, nil
}

// heldByValue reports whether a variable of type t holds its contents
// in place, so that writing inside it writes the variable: anything but
// a pointer.
func heldByValue(t types.Type) bool {
	_, ptr := t.Underlying().(*types.Pointer)
	return !ptr
}

// markWrites records in written every field that code in f writes: a
// keyed or unkeyed composite literal, an assignment or ++/-- to the
// field or through an index into it, taking its address, or calling a
// pointer-receiver method on it. Writing inside a value the field holds
// in place (not through a pointer) writes the field too, and so does
// writing a field promoted through it.
func markWrites(info *types.Info, f *ast.File, written map[*types.Var]bool) {
	var lvalue func(e ast.Expr)
	// selector records the writes of modifying x in place: a field
	// selection writes the field, a pointer-receiver method call its
	// receiver operand. Either write reaches the embedded fields the
	// selection passes through, and then x.X, for as long as each holds
	// the next by value.
	selector := func(x *ast.SelectorExpr, sel *types.Selection) {
		path := sel.Index()
		if sel.Kind() == types.MethodVal {
			path = path[:len(path)-1] // the last index picks the method
		}
		var chain []*types.Var
		t := sel.Recv()
		for _, i := range path {
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			v := t.Underlying().(*types.Struct).Field(i)
			chain = append(chain, v)
			t = v.Type()
		}
		i := len(chain) - 1
		if sel.Kind() == types.FieldVal {
			written[chain[i].Origin()] = true
			i--
		}
		for ; i >= 0; i-- {
			if !heldByValue(chain[i].Type()) {
				return
			}
			written[chain[i].Origin()] = true
		}
		if heldByValue(sel.Recv()) {
			lvalue(x.X)
		}
	}
	lvalue = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.ParenExpr:
			lvalue(x.X)
		case *ast.IndexExpr:
			lvalue(x.X)
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				selector(x, sel)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				lvalue(l)
			}
		case *ast.IncDecStmt:
			lvalue(x.X)
		case *ast.RangeStmt:
			if x.Tok == token.ASSIGN {
				if x.Key != nil {
					lvalue(x.Key)
				}
				if x.Value != nil {
					lvalue(x.Value)
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				lvalue(x.X)
			}
		case *ast.SelectorExpr:
			sel := info.Selections[x]
			if sel == nil || sel.Kind() != types.MethodVal {
				return true
			}
			recv := sel.Obj().Type().(*types.Signature).Recv()
			if _, ptrRecv := recv.Type().(*types.Pointer); ptrRecv {
				selector(x, sel)
			}
		case *ast.CompositeLit:
			t := info.Types[x].Type
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						written[v.Origin()] = true
					}
				} else {
					written[st.Field(i).Origin()] = true
				}
			}
		}
		return true
	})
}

// funcKey names fn "pkg.Func" or "pkg.Type.Method".
func funcKey(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Pkg().Name() + "." + recvNamed(recv).Obj().Name() + "." + fn.Name()
}

// recvNamed returns the named type of a method receiver (T or *T).
func recvNamed(recv *types.Var) *types.Named {
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// implementsCalled reports whether the concrete method fn implements,
// on its receiver type, one of the called interface methods.
func implementsCalled(fn *types.Func, called map[*types.Func]bool) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recvNamed(recv)
	for m := range called {
		if m.Name() != fn.Name() {
			continue
		}
		it := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// TestInternalExportsHaveCallers fails, naming each offender, for any
// exported function or method declared in a non-test file under
// internal/ that no shipped code reaches, and any exported field of an
// exported struct there that no shipped code writes (see deadExports),
// unless exportAllowlist names it with a reason.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	dead, err := deadExports(fset, shippedPackages(t, fset))
	if err != nil {
		t.Fatal(err)
	}
	var offenders []string
	for key, d := range dead {
		if _, ok := exportAllowlist[key]; !ok {
			offenders = append(offenders, d.pos.String()+": "+key+" "+d.fault)
		}
	}
	sort.Strings(offenders)
	for _, o := range offenders {
		t.Errorf("%s: delete it, or allowlist it with a reason", o)
	}
	for key, reason := range exportAllowlist {
		if _, ok := dead[key]; !ok {
			t.Errorf("allowlist entry %s is stale: it has a caller now, or no longer exists", key)
		}
		if reason == "" {
			t.Errorf("allowlist entry %s has no reason", key)
		}
	}
}

// TestDeadExportsFollowsTypes pins the two cases a scan by bare name
// gets wrong: a dead method that shares its name with a live method of
// another type (a name scan counts it as used), and a method reached
// only through an interface call (it is never named at a call site).
func TestDeadExportsFollowsTypes(t *testing.T) {
	const lib = `package lib

type Runner interface{ Run() int }

type Live struct{}

func (Live) Run() int { return 1 }
func (Live) Stop()    {}

type Dead struct{}

func (Dead) Stop() {}

type ViaIface struct{}

func (ViaIface) Run() int { return 2 }

func New() Runner { return ViaIface{} }

func Countdown(n int) int {
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}
`
	const app = `package app

import "repro/internal/lib"

func Main() int {
	lib.Live{}.Stop()
	return lib.New().Run()
}
`
	fset := token.NewFileSet()
	parse := func(name, src string) *ast.File {
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	dead, err := deadExports(fset, []*srcPkg{
		{path: "repro/app", files: []*ast.File{parse("app.go", app)}, imports: []string{"repro/internal/lib"}},
		{path: "repro/internal/lib", files: []*ast.File{parse("lib.go", lib)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for key := range dead {
		got = append(got, key)
	}
	sort.Strings(got)
	// Dead.Stop hides behind Live.Stop by name and Countdown's only use
	// is its own recursive call; Live.Run and ViaIface.Run are reached
	// through Runner.Run.
	want := []string{"lib.Countdown", "lib.Dead.Stop"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("dead exports = %v, want %v", got, want)
	}
}

// TestDeadExportsCountsFieldWrites pins what counts as writing a field:
// keyed and unkeyed composite literals, assignment, ++, assignment
// through an index, taking the address, a pointer-receiver method call
// on the field, and writing inside a struct the field holds by value or
// through a field promoted from it. A method call through a pointer
// field does not write that field, and a read writes nothing.
func TestDeadExportsCountsFieldWrites(t *testing.T) {
	const lib = `package lib

type Counter struct{ n int }

func (c *Counter) Inc() { c.n++ }

type Inner struct{ N int }

type Pair struct{ A, B int }

type Knobs struct {
	Keyed    int
	Assigned int
	Bumped   int
	Indexed  []int
	Addr     int
	Ctr      Counter
	ViaPtr   *Counter
	Nested   Inner
	Inner
	ReadOnly int
	Unset    int
}
`
	const app = `package app

import "repro/internal/lib"

func Main() int {
	_ = lib.Pair{1, 2}
	k := &lib.Knobs{Keyed: 1}
	k.Assigned = 2
	k.Bumped++
	k.Indexed[0] = 3
	p := &k.Addr
	*p = 4
	k.Ctr.Inc()
	k.ViaPtr.Inc()
	k.Nested.N = 5
	k.N = 6
	return k.ReadOnly
}
`
	fset := token.NewFileSet()
	parse := func(name, src string) *ast.File {
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	dead, err := deadExports(fset, []*srcPkg{
		{path: "repro/app", files: []*ast.File{parse("app.go", app)}, imports: []string{"repro/internal/lib"}},
		{path: "repro/internal/lib", files: []*ast.File{parse("lib.go", lib)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for key := range dead {
		got = append(got, key)
	}
	sort.Strings(got)
	want := []string{"lib.Knobs.ReadOnly", "lib.Knobs.Unset", "lib.Knobs.ViaPtr"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("dead exports = %v, want %v", got, want)
	}
}
