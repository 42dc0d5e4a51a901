package repro

// Size checks. TestCodeLines is the committed line counter the north
// star's "least code" is measured by (go test -run TestCodeLines -v .),
// and holds every package at its pinned count;
// TestConfigSurface requires every configuration knob to be set by code
// outside its package, so a knob nobody outside turns fails the build.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// codeLines counts the lines of a Go source that hold a token: blank
// lines and lines holding only comments do not count.
func codeLines(src []byte) int {
	fset := token.NewFileSet()
	file := fset.AddFile("", fset.Base(), len(src))
	var s scanner.Scanner
	s.Init(file, src, nil, 0)
	lines := map[int]bool{}
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			break
		}
		if tok == token.SEMICOLON && lit == "\n" {
			continue // inserted at a line end: the line already counts
		}
		first := file.Line(pos)
		for l := first; l <= first+strings.Count(lit, "\n"); l++ {
			lines[l] = true // a raw string spans its lines
		}
	}
	return len(lines)
}

// codeCeilings pins the code lines of every package TestCodeLines counts
// at its count. A change that makes a package longer raises its pin here,
// in the same diff, and says why beside it; one that makes it shorter
// lowers the pin, so a pin never leaves room for growth nobody
// explained. A package with no pin fails too.
var codeCeilings = map[string]int{
	".":                   1,
	"cmd/orca-ab":         208, // new: alternating benchmark pairs of two commits, with the medians, quartiles, wins and verdict of each end-to-end metric; -repo is required
	"cmd/orca-bench":      44,
	"examples/acp":        29,
	"examples/atpg":       28,
	"examples/chess":      29,
	"examples/faults":     38,
	"examples/kv":         32,
	"examples/mixed":      30,
	"examples/quickstart": 48,
	"examples/tsp":        32,
	"internal/amoeba":     802, // −7: one continuation form per primitive: ComputeFn, SendFn, PutResultFn, PutReplyFn and CallFn are gone (PutReplyOn, CallOn), and a server, a transaction record and a deadline are their own continuations, binding nothing
	"internal/apps/acp":   628, // −9: Work.AnyWork and its descriptor, which nothing called
	"internal/apps/atpg":  764, // −5: Circuit.Fanout with the fanout lists only it read, and FaultSimulator.Good, which nothing called
	"internal/apps/chess": 986,
	"internal/apps/kv":    369,  // +9: the key directory, the slot array's write path and the 1<<31 key limit (map shard state and receipt maps went)
	"internal/apps/tsp":   575,  // −1: SolveSeq is a method search over a uint64 of free cities that tests a child before recursing; the closure over a visited []bool it replaced is solve_test.go's reference
	"internal/group":      2308, // −4: the lazily made timers are kernel timers (group.timer, an amoeba.Timer that is its own round), BroadcastBatchFn is BroadcastBatchOn, an outbox fires a sim.Firer, a step runs a function of the member, so a round that is a method expression binds nothing, and the throttles' flags share a word
	"internal/harness":    1622,
	"internal/netsim":     415,  // +1: Downs, the count of crashed nodes, which the trim scan's gate reads
	"internal/orca":       738,  // +12: the descriptors carve their arguments, and their operations their results, from the run's tables (rec1/rec2 take the run; a two-result apply is named before its record), and a fork message is carved from the runtime's chunk, whose first run is planned at one fork per other machine
	"internal/orca/std":   366,  // −1: the job queue keeps its jobs in segments that are never copied (push/pop keep the size count) and Queue.Add carves the job; the nine Handle accessors, which nothing called, are gone
	"internal/rts":        2822, // −5: a primary's queue, a combining buffer, a sequenced record's wait and a forwarded operation are their own continuations (sim.Firer), and sequence fires one continuation, the waiting thread or a consumer's, where it took a func or nil for the thread
	"internal/rts/scheck": 111,
	"internal/sim":        869, // −6: a process is its own continuation (Proc.Fire): Proc.Resume and the closure bound for it, Resource.UseFn and Event.Init are gone, a condition's waiters are the continuations their wake-ups fire, and a resource is its own grant and expiry callback
	"internal/workload":   231, // +10: one Zipf table per (Keys, Theta), shared by every generator instead of summed per client
}

func TestCodeLines(t *testing.T) {
	perPkg := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "bench") {
				return filepath.SkipDir // bench/ is a module of its own
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		perPkg[filepath.ToSlash(filepath.Dir(path))] += codeLines(src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make([]string, 0, len(perPkg))
	for p := range perPkg {
		pkgs = append(pkgs, p)
	}
	slices.Sort(pkgs)
	var core, all int
	for _, p := range pkgs {
		n := perPkg[p]
		t.Logf("%6d %s", n, p)
		if pin, ok := codeCeilings[p]; !ok || n != pin {
			t.Errorf("%s: %d code lines, pinned at %d (pinned: %t); move the pin in codeCeilings to the count, with the reason", p, n, pin, ok)
		}
		all += n
		if strings.HasPrefix(p, "internal/") || strings.HasPrefix(p, "cmd/") {
			core += n
		}
	}
	t.Logf("%6d internal/ + cmd/", core)
	t.Logf("%6d all", all)
	if core == 0 {
		t.Fatal("no code lines under internal/ or cmd/")
	}
}

// configRecords are the records a program configures the stack with.
var configRecords = []string{
	"orca.Config", "group.Config", "group.BatchConfig", "rts.P2PConfig",
	"rts.AdaptConfig", "rts.Costs", "rts.ObjectType", "amoeba.Costs", "netsim.Params",
}

// pinnedRecords are records whose exported fields are handles that
// outside code reads, not knobs it sets; their field lists are pinned.
var pinnedRecords = map[string]string{"rts.Worker": "P M"}

// surfaceKept lists the knobs no non-test code outside their package
// sets, each with the outside reader that keeps it and why.
var surfaceKept = map[string]struct{ reader, why string }{
	"rts.AdaptConfig.WriteHeavyFrac": {"internal/orca/matrix_test.go", "TestConfigMatrix lowers it so an adaptive object migrates at test scale"},
	"rts.AdaptConfig.ReadHeavyFrac":  {"internal/orca/matrix_test.go", "TestConfigMatrix lowers it so an adaptive object migrates at test scale"},
	"rts.AdaptConfig.DominantFrac":   {"internal/orca/matrix_test.go", "TestConfigMatrix lowers it so an adaptive object migrates at test scale"},
}

// TestConfigSurface is DESIGN.md's outside-setter rule ("Configuration
// surface") as a check. It type-checks every non-test package of the
// module and of bench/, and requires every exported field of the
// configuration records to be set by code outside the record's own
// package — in a keyed literal, by assignment, by address, or through a
// function that stores a parameter in it; a value read from the same
// field of another record, such as DefaultCosts().Send, is a copy and
// sets nothing — and every exported placement policy and creation option
// of orca/policy.go to be referenced there. Anything else needs a
// surfaceKept entry naming the outside reader that keeps it; -v prints
// each knob's outside setters.
func TestConfigSurface(t *testing.T) {
	src := loadSource(t)
	orca := src.pkgs["repro/internal/orca"]

	for rec, want := range pinnedRecords {
		var got []string
		for _, f := range src.exported(rec) {
			got = append(got, f.Name())
		}
		if strings.Join(got, " ") != want {
			t.Errorf("%s's exported fields are %q, want %q", rec, strings.Join(got, " "), want)
		}
	}
	knobs := map[types.Object]string{} // field or option → "pkg.Record.Field" / "pkg.Name"
	var names []string
	for _, rec := range configRecords {
		fields := src.exported(rec)
		for _, f := range fields {
			knobs[f] = rec + "." + f.Name()
			names = append(names, rec+"."+f.Name())
		}
		t.Logf("%-18s %2d exported fields", rec, len(fields))
	}
	policy := orca.Scope().Lookup("Policy").Type()
	option := orca.Scope().Lookup("Option").Type()
	for _, name := range orca.Scope().Names() {
		obj := orca.Scope().Lookup(name)
		if !obj.Exported() || filepath.Base(src.fset.Position(obj.Pos()).Filename) != "policy.go" {
			continue
		}
		kind := obj.Type()
		if sig, ok := kind.(*types.Signature); ok && sig.Results().Len() == 1 {
			kind = sig.Results().At(0).Type()
		}
		if _, isType := obj.(*types.TypeName); isType && kind != policy && types.Implements(kind, policy.Underlying().(*types.Interface)) ||
			!isType && (types.Identical(kind, policy) || types.Identical(kind, option)) {
			knobs[obj] = "orca." + name
			names = append(names, "orca."+name)
		}
	}

	// A function that puts a parameter in a knob field, as
	// group.DefaultConfig(members) does, lets every caller set the field.
	fromParams := map[types.Object][]types.Object{}
	for _, file := range src.files {
		for _, d := range file.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := src.info.Defs[fd.Name].(*types.Func)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if kv, ok := n.(*ast.KeyValueExpr); ok {
					key, _ := kv.Key.(*ast.Ident)
					val, _ := kv.Value.(*ast.Ident)
					if _, isKnob := knobs[src.info.Uses[key]]; isKnob && val != nil && isParam(src.info.Uses[val], fn) {
						fromParams[fn] = append(fromParams[fn], src.info.Uses[key])
					}
				}
				return true
			})
		}
	}

	setters := map[string]map[string]bool{} // knob → outside package dirs
	set := func(obj types.Object, file *srcFile) {
		if name, ok := knobs[obj]; ok && obj.Pkg() != file.pkg {
			if setters[name] == nil {
				setters[name] = map[string]bool{}
			}
			setters[name][file.dir] = true
		}
	}
	for _, file := range src.files {
		ast.Inspect(file.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok && !src.copies(n.Value, src.info.Uses[id]) {
					set(src.info.Uses[id], file)
				}
			case *ast.AssignStmt:
				for i, l := range n.Lhs {
					if sel, ok := ast.Unparen(l).(*ast.SelectorExpr); ok && !(len(n.Rhs) == len(n.Lhs) && src.copies(n.Rhs[i], src.info.Uses[sel.Sel])) {
						set(src.info.Uses[sel.Sel], file)
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
					set(src.info.Uses[sel.Sel], file)
				}
			case *ast.UnaryExpr:
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && n.Op == token.AND {
					set(src.info.Uses[sel.Sel], file)
				}
			case *ast.Ident:
				obj := src.info.Uses[n]
				if v, ok := obj.(*types.Var); !ok || !v.IsField() {
					set(obj, file) // a policy or an option is kept by any reference
				}
				for _, f := range fromParams[obj] {
					set(f, file)
				}
			}
			return true
		})
	}

	for _, name := range names {
		kept, isKept := surfaceKept[name]
		switch {
		case len(setters[name]) > 0 && isKept:
			t.Errorf("%s is set outside its package (%s): delete its surfaceKept entry", name, strings.Join(slices.Sorted(maps.Keys(setters[name])), " "))
		case len(setters[name]) > 0:
			t.Logf("%-32s %s", name, strings.Join(slices.Sorted(maps.Keys(setters[name])), " "))
		case !isKept:
			t.Errorf("%s: no non-test code outside its package sets or uses it; cut it, or add a surfaceKept entry naming the outside reader that keeps it", name)
		default:
			t.Logf("%-32s kept: %s — %s", name, kept.reader, kept.why)
			field := name[strings.LastIndex(name, ".")+1:]
			if text, err := os.ReadFile(kept.reader); err != nil || !regexp.MustCompile(`\b`+field+`\b`).Match(text) {
				t.Errorf("%s: its reader %s does not mention %s (%v)", name, kept.reader, field, err)
			}
		}
	}
	for name := range surfaceKept {
		if !slices.Contains(names, name) {
			t.Errorf("surfaceKept names %s, which is no longer a knob", name)
		}
	}
}

// exported returns the exported fields of rec, a "pkg.Type" struct
// under internal/.
func (s *source) exported(rec string) []*types.Var {
	pkg, typ, _ := strings.Cut(rec, ".")
	var out []*types.Var
	for f := range s.pkgs["repro/internal/"+pkg].Scope().Lookup(typ).Type().Underlying().(*types.Struct).Fields() {
		if f.Exported() {
			out = append(out, f)
		}
	}
	return out
}

// copies reports whether the value e reads field from another record,
// as in Send: DefaultCosts().Send or MaxOps: b.MaxOps.
func (s *source) copies(e ast.Expr, field types.Object) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	return ok && s.info.Uses[sel.Sel] == field
}

// isParam reports whether obj is one of fn's parameters.
func isParam(obj types.Object, fn *types.Func) bool {
	for p := range fn.Signature().Params().Variables() {
		if p == obj {
			return true
		}
	}
	return false
}

// srcFile is one parsed non-test file and the package it belongs to.
type srcFile struct {
	ast *ast.File
	pkg *types.Package
	dir string // relative to the repository root
}

// source is every non-test package of the repository, type-checked from
// its files; the standard library comes from export data.
type source struct {
	fset  *token.FileSet
	info  *types.Info
	pkgs  map[string]*types.Package
	files []*srcFile
	std   types.Importer
}

// loadSource type-checks the non-test code under internal/, cmd/,
// examples/ and bench/.
func loadSource(t *testing.T) *source {
	t.Helper()
	fset := token.NewFileSet()
	src := &source{fset: fset, info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		pkgs: map[string]*types.Package{}, std: importer.ForCompiler(fset, "gc", nil)}
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if goFiles(p) != nil {
				_, err = src.Import("repro/" + filepath.ToSlash(p))
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return src
}

// goFiles lists dir's non-test Go files.
func goFiles(dir string) []string {
	ents, _ := os.ReadDir(dir)
	var out []string
	for _, e := range ents {
		if n := e.Name(); !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			out = append(out, filepath.Join(dir, n))
		}
	}
	return out
}

// Import type-checks a repository package from its files, once; bench/
// is module repro/bench, so one prefix maps every path to its directory.
func (s *source) Import(importPath string) (*types.Package, error) {
	if pkg, ok := s.pkgs[importPath]; ok {
		return pkg, nil
	}
	dir, ok := strings.CutPrefix(importPath, "repro/")
	if !ok {
		return s.std.Import(importPath)
	}
	var files []*ast.File
	for _, name := range goFiles(filepath.FromSlash(dir)) {
		f, err := parser.ParseFile(s.fset, name, nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: s}).Check(importPath, s.fset, files, s.info)
	if err != nil {
		return nil, err
	}
	s.pkgs[importPath] = pkg
	for _, f := range files {
		s.files = append(s.files, &srcFile{ast: f, pkg: pkg, dir: dir})
	}
	return pkg, nil
}

// continuationKept lists the exported functions of the kernel layers
// that take a func with no results as a parameter, each with why it is
// not a continuation or stays a func. Every other waiting primitive
// has one continuation form, which takes a sim.Firer (a func goes in
// as sim.Func), and its blocking form is that form and a park.
var continuationKept = map[string]string{
	"sim.Env.At":                 "schedules a callback and returns its event: the caller's own timer, not a continuation",
	"sim.Env.After":              "At, d from now",
	"sim.Env.Schedule":           "At without the handle: a fire-and-forget callback",
	"sim.Env.Spawn":              "a process body, not a continuation",
	"sim.Env.SpawnAt":            "Spawn at a given time",
	"amoeba.Machine.SpawnThread": "a thread body, not a continuation",
	"amoeba.Machine.Defer":       "a round for interrupt service, run in the interrupt claimant's name",
	"amoeba.Machine.Deadline":    "a one-shot kernel round on a record the machine pools, which a timer embedded in a packer cannot replace (DESIGN.md, \"Kernel deadlines\"); its callers bind their rounds once",
	"amoeba.Server.Serve":        "the function every request is handed to, the consumer of the server's queue",
	"rts.Registry.Each":          "a visitor called once per registered type, within the call",
	"rts.Router.SetExtraHandler": "the handler of group bodies the runtime does not know, set once by the Orca layer",
}

// TestContinuationForms holds the kernel layers to one continuation
// form per primitive: no exported name in them ends in Fn (the func
// twins of the typed forms), and none takes a func with no results as
// a parameter unless continuationKept says why. -v prints the kept ones.
func TestContinuationForms(t *testing.T) {
	src := loadSource(t)
	takers := map[string]bool{}
	check := func(name string, obj types.Object) {
		if strings.HasSuffix(obj.Name(), "Fn") {
			t.Errorf("%s: an exported name ends in Fn; its primitive's one continuation form takes a sim.Firer", name)
		}
		fn, ok := obj.(*types.Func)
		if !ok {
			return
		}
		for p := range fn.Signature().Params().Variables() {
			if sig, ok := p.Type().(*types.Signature); ok && sig.Results().Len() == 0 {
				takers[name] = true
			}
		}
	}
	for _, layer := range []string{"sim", "amoeba", "group", "rts"} {
		scope := src.pkgs["repro/internal/"+layer].Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if !obj.Exported() {
				continue
			}
			check(layer+"."+n, obj)
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			for m := range named.Methods() {
				if m.Exported() {
					check(layer+"."+n+"."+m.Name(), m)
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for f := range st.Fields() {
					if f.Exported() {
						check(layer+"."+n+"."+f.Name(), f)
					}
				}
			}
		}
	}
	for _, name := range slices.Sorted(maps.Keys(takers)) {
		if why, ok := continuationKept[name]; ok {
			t.Logf("%-27s kept: %s", name, why)
		} else {
			t.Errorf("%s takes a func continuation; take a sim.Firer instead, or add it to continuationKept with the reason", name)
		}
	}
	for name := range continuationKept {
		if !takers[name] {
			t.Errorf("continuationKept names %s, which takes no func continuation", name)
		}
	}
}

// downReads pins every read of netsim.Network.Down and Downs outside
// netsim, as "file function", once per read: the simulator's perfect
// failure detector, which a real kernel would not have (DESIGN.md,
// "The perfect failure detector"). A new read fails TestDownReads until
// it is listed here and there.
var downReads = []string{
	"internal/amoeba/rpc.go CallOn",
	"internal/amoeba/rpc.go woke",
	"internal/group/consensus.go successorRank",
	"internal/group/election.go checkViewInstalled",
	"internal/group/group.go noteStatus",
	"internal/group/group.go trimHistory",
	"internal/group/group.go trimHistory",
	"internal/rts/bcast_partial.go forward",
}

func TestDownReads(t *testing.T) {
	src := loadSource(t)
	network := src.pkgs["repro/internal/netsim"].Scope().Lookup("Network").Type().(*types.Named)
	var got []string
	for _, file := range src.files {
		if file.dir == "internal/netsim" {
			continue
		}
		for _, d := range file.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if m, ok := src.info.Uses[sel.Sel].(*types.Func); ok && (m.Name() == "Down" || m.Name() == "Downs") {
					if recv := m.Signature().Recv(); recv != nil && types.Identical(recv.Type(), types.NewPointer(network)) {
						got = append(got, filepath.ToSlash(filepath.Join(file.dir, filepath.Base(src.fset.Position(fd.Pos()).Filename)))+" "+fd.Name.Name)
					}
				}
				return true
			})
		}
	}
	slices.Sort(got)
	for _, r := range got {
		t.Logf("%s", r)
	}
	if !slices.Equal(got, downReads) {
		t.Errorf("reads of Network.Down/Downs outside netsim:\n  got  %q\n  want %q\nname a new read in downReads and in DESIGN.md, \"The perfect failure detector\"", got, downReads)
	}
}
