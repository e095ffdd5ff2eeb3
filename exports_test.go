// Dead-API gate: every exported function and method under internal/
// must be named somewhere in the code that ships — the non-test files
// of this module (cmd/, internal/) and of the bench/ module.
package repro

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

// exportAllowlist names exported internal/ functions and methods that
// no shipped code calls but that stay on purpose, each with its reason:
// tests use them to observe model state that has no other accessor.
// Keys are "pkg.Func" or "pkg.Type.Method". An entry the gate would
// not flag (a caller appeared, or the method is gone) fails as stale,
// so the list holds only what it must.
var exportAllowlist = map[string]string{
	"flow.Tracker.Record":               "per-frame reference RecordBatch is pinned against",
	"sim.Engine.Stop":                   "stops a run early to test draining after Ctrl-C",
	"sim.Engine.SetStopTime":            "absolute run limit for engine-level tests",
	"sim.Engine.Procs":                  "live process count, pins that procs exit",
	"wire.Link.Transmit":                "drives a bare link without a NIC in front",
	"wire.Link.IsDown":                  "administrative link state under link-flap faults",
	"nic.RxQueue.Missed":                "per-queue RX drops (the port total is a register)",
	"nic.Port.SetTxTrace":               "departure instants the batching invariance pins compare",
	"dut.Forwarder.Backlog":             "DuT queue depth under overload",
	"dut.Forwarder.MeanInternalLatency": "DuT sojourn time, the ~2 ms overload latency",
	"rate.GapFiller.Debt":               "unrepresented gap debt of the CRC-gap filler",
	"fault.Injector.Scheduled":          "number of fault events armed from a schedule",
	"fault.Injector.LastRecoveryNS":     "recovery instant of the last fault",
	"ptpclk.Clock.Tick":                 "clock register granularity",
}

// exportExemptPkgs are skipped wholesale: internal/proto's header
// accessors are the packet API, complete whether or not a scenario
// touches a given field today.
var exportExemptPkgs = map[string]bool{"proto": true}

// shippedGoFiles returns every non-test .go file of the repository
// (bench/ included), skipping testdata and hidden directories.
func shippedGoFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestInternalExportsHaveCallers fails, naming each offender, for any
// exported function or method declared in a non-test file under
// internal/ whose name is used in no non-test file of the repository.
// Matching is by bare name, not by resolved object: a use of any
// same-named identifier (another type's method, a struct field)
// counts as a caller. The gate is therefore a lower bound on dead API
// — everything it names is dead, but it cannot see everything dead.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	type decl struct {
		key string
		pos token.Position
	}
	var decls []decl
	for _, path := range shippedGoFiles(t) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		declNames := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			pkg := f.Name.Name
			if !strings.HasPrefix(filepath.ToSlash(path), "internal/") || exportExemptPkgs[pkg] || !fd.Name.IsExported() {
				continue
			}
			key := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				key = pkg + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fset.Position(fd.Name.Pos())})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				used[id.Name] = true
			}
			return true
		})
	}

	var offenders []string
	flagged := map[string]bool{}
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if used[name] {
			continue
		}
		flagged[d.key] = true
		if _, ok := exportAllowlist[d.key]; !ok {
			offenders = append(offenders, d.pos.String()+": "+d.key)
		}
	}
	sort.Strings(offenders)
	for _, o := range offenders {
		t.Errorf("%s has no caller outside tests: delete it, or allowlist it with a reason", o)
	}
	for key := range exportAllowlist {
		if !flagged[key] {
			t.Errorf("allowlist entry %s is stale: it has a caller now, or no longer exists", key)
		}
	}
}

// recvTypeName returns the base type name of a method receiver
// (T, *T, T[P] and *T[P] all give T).
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
