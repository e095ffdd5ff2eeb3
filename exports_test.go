// Dead-API gate: every exported function and method under internal/
// must be reached from the code that ships — the non-test files of
// this module (cmd/, internal/) and of the bench/ module. The gate
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
// no shipped code reaches but that stay on purpose, each with its
// reason: tests use them as a reference or to observe model state that
// has no other accessor. Keys are "pkg.Func" or "pkg.Type.Method". An
// entry the gate would not flag (a caller appeared, or the method is
// gone) fails as stale, so the list holds only what it must.
var exportAllowlist = map[string]string{
	"flow.Tracker.Record":               "per-frame reference RecordBatch is pinned against",
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
	"flow.Tracker.Merge":                "per-shard merge the sharded flow tests compare against the unsharded run",
	"mempool.Cache.Flush":               "returns cached buffers so leak tests can see a whole pool",
	"mempool.Pool.Count":                "pool size, the Available == Count leak check",
	"mempool.Pool.Stats":                "alloc/free totals the shared TX cache leak test compares",
	"stats.Histogram.Mean":              "sample mean the merge-property, flow-merge and timestamper tests compare",
	"stats.Histogram.Std":               "spread the histogram merge property compares",
	"stats.Histogram.WriteCSV":          "text form of the bins the CSV round-trip test pins",
	"telemetry.Recorder.Windows":        "windows recorded, what the telemetry tests and overhead benchmark check",
	"proto.UDPPacket.CalcChecksums":     "software reference the UDP checksum-offload tests and BenchmarkTable1OffloadUDP compare against",
	"proto.UDPPacket.VerifyChecksums":   "checks frames the NIC's UDP checksum offload wrote",
	"proto.TCPPacket.CalcChecksums":     "software reference the TCP checksum-offload tests and BenchmarkTable1OffloadTCP compare against",
	"proto.TCPPacket.VerifyChecksums":   "checks frames the NIC's TCP checksum offload wrote",
	"proto.Template.CalcIPChecksum":     "full-recompute reference TestTemplateIncrementalChecksums pins the RFC 1624 path against",
	"proto.Template.TransportChecksum":  "full-recompute reference for the template's transport checksum",
	"proto.Template.SetIPSrc":           "RFC 1624 address update TestTemplateIncrementalChecksums pins",
	"proto.Template.SetIPID":            "RFC 1624 field update TestTemplateIncrementalChecksums pins",
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

// deadExports type-checks pkgs in dependency order and returns, keyed
// "pkg.Func" or "pkg.Type.Method", every exported function and method
// declared in a package under repro/internal/ that no resolved use in
// pkgs reaches. A use inside the function's own body does not count.
// A method also counts as reached when it implements an interface
// method that is called through the interface; String and Error
// always count, because fmt calls them.
func deadExports(fset *token.FileSet, pkgs []*srcPkg) (map[string]token.Position, error) {
	byPath := map[string]*srcPkg{}
	for _, p := range pkgs {
		byPath[p.path] = p
	}
	im := checkedImporter{checked: map[string]*types.Package{}, std: importer.Default()}
	uses := map[*ast.Ident]types.Object{}
	decls := map[*types.Func]*ast.FuncDecl{}
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
		tp, err := (&types.Config{Importer: im}).Check(p.path, fset, p.files, &types.Info{Uses: uses, Defs: defs})
		if err != nil {
			return err
		}
		im.checked[p.path] = tp
		if !strings.HasPrefix(p.path, "repro/internal/") {
			return nil
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

	dead := map[string]token.Position{}
	for fn, fd := range decls {
		if !used[fn] && !implementsCalled(fn, called) {
			dead[funcKey(fn)] = fset.Position(fd.Name.Pos())
		}
	}
	return dead, nil
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
// internal/ that no shipped code reaches (see deadExports), unless
// exportAllowlist names it with a reason.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	dead, err := deadExports(fset, shippedPackages(t, fset))
	if err != nil {
		t.Fatal(err)
	}
	var offenders []string
	for key, pos := range dead {
		if _, ok := exportAllowlist[key]; !ok {
			offenders = append(offenders, pos.String()+": "+key)
		}
	}
	sort.Strings(offenders)
	for _, o := range offenders {
		t.Errorf("%s has no caller outside tests: delete it, or allowlist it with a reason", o)
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
