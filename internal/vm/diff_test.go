// Differential tests: the fast interpreter (vm.Run) against the
// preserved naive interpreter (internal/baseline). External test
// package because baseline imports vm.
package vm_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/baseline"
	"repro/internal/cred"
	"repro/internal/loader"
	"repro/internal/vm"
	"repro/internal/vm/analysis"
)

// errClass buckets an interpreter error so two interpreters can be
// compared without insisting on identical message text.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, vm.ErrFuelExhausted):
		return "fuel"
	case errors.Is(err, vm.ErrAborted):
		return "aborted"
	case errors.Is(err, vm.ErrStackOverflow):
		return "overflow"
	case errors.Is(err, vm.ErrNoFunction):
		return "nofunc"
	case errors.Is(err, vm.ErrTrap):
		return "trap"
	default:
		return "other"
	}
}

// diffEnv builds one interpreter leg's environment: deterministic host
// table, fresh meter, resolver over the given module.
func diffEnv(m *vm.Module, fuel uint64) *vm.Env {
	env := vm.NewEnv()
	vm.InstallBuiltins(env)
	for _, name := range []string{"go", "get_resource", "log"} {
		env.Host[name] = func(args []vm.Value) (vm.Value, error) {
			return vm.I(int64(len(args))), nil
		}
	}
	env.Resolver = vm.ModuleResolver{M: m}
	env.Meter = vm.NewMeter(fuel)
	return env
}

// runLeg executes fname through one interpreter and reports the
// comparable outcome.
type legResult struct {
	val     vm.Value
	class   string
	used    uint64
	globals map[string]vm.Value
}

func runNaive(m *vm.Module, fuel uint64, fname string, args ...vm.Value) legResult {
	env := diffEnv(m, fuel)
	v, err := baseline.NaiveInterp{}.Run(env, m, fname, args...)
	return legResult{val: v, class: errClass(err), used: env.Meter.Used(), globals: env.Globals}
}

func runFast(m *vm.Module, fuel uint64, fname string, args ...vm.Value) legResult {
	env := diffEnv(m, fuel)
	v, err := vm.Run(env, m, fname, args...)
	return legResult{val: v, class: errClass(err), used: env.Meter.Used(), globals: env.Globals}
}

func compareLegs(t *testing.T, label string, want, got legResult) {
	t.Helper()
	if want.class != got.class {
		t.Fatalf("%s: error class %q, naive %q", label, got.class, want.class)
	}
	if want.class == "ok" && !want.val.Equal(got.val) {
		t.Fatalf("%s: value %v, naive %v", label, got.val, want.val)
	}
	if want.used != got.used {
		t.Fatalf("%s: fuel used %d, naive %d (class %s)", label, got.used, want.used, want.class)
	}
	if !reflect.DeepEqual(want.globals, got.globals) {
		t.Fatalf("%s: globals %v, naive %v", label, got.globals, want.globals)
	}
}

// fuzzModule decodes the 3-byte-triple instruction stream the
// FuzzVerify generator uses, so the two fuzzers share a corpus shape.
func fuzzModule(data []byte) *vm.Module {
	m := &vm.Module{
		Name: "fuzz",
		Ints: []int64{0, 1},
		Strs: []string{"go", "get_resource", "log"},
	}
	var code []vm.Instr
	for i := 0; i+2 < len(data); i += 3 {
		code = append(code, vm.Instr{
			Op: vm.Opcode(data[i]),
			A:  int32(int8(data[i+1])),
			B:  int32(data[i+2] % 8),
		})
	}
	if len(code) == 0 {
		code = []vm.Instr{{Op: vm.OpPushNil}, {Op: vm.OpReturn}}
	}
	m.Fns = []vm.Func{{Name: "f", NParams: 1, NLocals: 2, Code: code}}
	return m
}

// seedBytes encodes instructions into the generator's wire shape.
func seedBytes(code []vm.Instr) []byte {
	out := make([]byte, 0, 3*len(code))
	for _, ins := range code {
		out = append(out, byte(ins.Op), byte(int8(ins.A)), byte(ins.B))
	}
	return out
}

// FuzzDifferential runs every verifiable generated module through the
// naive interpreter, the fast interpreter on canonical code, and the
// fast interpreter on the prepared (fused) execution copy, and insists
// all three agree on result value, error class, settled fuel, and the
// final global table. This is the executable statement of the PR's
// core claim: the fast path changes performance, not semantics.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte{})
	// countdown loop: while n > 0 { n = n - 1 }; return 0
	f.Add(seedBytes([]vm.Instr{
		{Op: vm.OpLoadLocal, A: 0},
		{Op: vm.OpPushInt, A: 0},
		{Op: vm.OpGt},
		{Op: vm.OpJumpIfFalse, A: 9},
		{Op: vm.OpLoadLocal, A: 0},
		{Op: vm.OpPushInt, A: 1},
		{Op: vm.OpSub},
		{Op: vm.OpStoreLocal, A: 0},
		{Op: vm.OpJump, A: 0},
		{Op: vm.OpPushInt, A: 0},
		{Op: vm.OpReturn},
	}))
	// host call + global store
	f.Add(seedBytes([]vm.Instr{
		{Op: vm.OpLoadLocal, A: 0},
		{Op: vm.OpHostCall, A: 2, B: 1},
		{Op: vm.OpStoreGlobal, A: 0},
		{Op: vm.OpLoadGlobal, A: 0},
		{Op: vm.OpReturn},
	}))
	// arithmetic that traps (div by zero)
	f.Add(seedBytes([]vm.Instr{
		{Op: vm.OpLoadLocal, A: 0},
		{Op: vm.OpPushInt, A: 0},
		{Op: vm.OpDiv},
		{Op: vm.OpReturn},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzModule(data)
		if vm.HasFused(m) {
			// Generated bytes happened to decode to fused opcodes: not
			// canonical wire code, the naive interpreter rejects it.
			t.Skip("generated module already fused")
		}
		if vm.Verify(m) != nil {
			t.Skip("unverifiable module")
		}
		const fuel = 5000
		arg := vm.I(7)
		naive := runNaive(m, fuel, "f", arg)
		fast := runFast(m, fuel, "f", arg)
		compareLegs(t, "fast/canonical", naive, fast)
		prepared := runFast(vm.Prepare(m), fuel, "f", arg)
		compareLegs(t, "fast/prepared", naive, prepared)
	})
}

// countdownModule returns the loop used by the fuel parity sweep.
func countdownModule(t *testing.T) *vm.Module {
	t.Helper()
	m := fuzzModule(seedBytes([]vm.Instr{
		{Op: vm.OpLoadLocal, A: 0},
		{Op: vm.OpPushInt, A: 0},
		{Op: vm.OpGt},
		{Op: vm.OpJumpIfFalse, A: 9},
		{Op: vm.OpLoadLocal, A: 0},
		{Op: vm.OpPushInt, A: 1},
		{Op: vm.OpSub},
		{Op: vm.OpStoreLocal, A: 0},
		{Op: vm.OpJump, A: 0},
		{Op: vm.OpPushInt, A: 0},
		{Op: vm.OpReturn},
	}))
	if err := vm.Verify(m); err != nil {
		t.Fatalf("countdown module: %v", err)
	}
	return m
}

// TestFuelExhaustionParity sweeps the fuel limit across every cutoff
// point of a loop and checks the fast interpreter (canonical and
// prepared) lands on exactly the naive interpreter's error class and
// Used() — including limits that cut a run mid-reservation-window.
func TestFuelExhaustionParity(t *testing.T) {
	m := countdownModule(t)
	p := vm.Prepare(m)
	for limit := uint64(1); limit <= 2*vm.FuelWindow; limit++ {
		naive := runNaive(m, limit, "f", vm.I(40))
		compareLegs(t, "canonical", naive, runFast(m, limit, "f", vm.I(40)))
		compareLegs(t, "prepared", naive, runFast(p, limit, "f", vm.I(40)))
	}
}

// TestAbortWithinWindow aborts an unlimited-fuel infinite loop from
// another goroutine; the fast interpreter must notice at its next
// window refill — i.e. within FuelWindow instructions, well inside the
// test's timeout.
func TestAbortWithinWindow(t *testing.T) {
	m := fuzzModule(seedBytes([]vm.Instr{{Op: vm.OpJump, A: 0}}))
	if err := vm.Verify(m); err != nil {
		t.Fatalf("loop module: %v", err)
	}
	env := diffEnv(vm.Prepare(m), 0) // limit 0 = unlimited
	done := make(chan error, 1)
	go func() {
		_, err := vm.Run(env, vm.Prepare(m), "f", vm.I(0))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	env.Meter.Abort()
	select {
	case err := <-done:
		if !errors.Is(err, vm.ErrAborted) {
			t.Fatalf("loop ended with %v, want ErrAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abort did not stop the loop within 5s (reservation window not honoured)")
	}
}

// callerTargetModule builds module "m" with target() returning ret and
// caller() that calls m:target through the resolver.
func callerTargetModule(t *testing.T, ret int64) *vm.Module {
	t.Helper()
	m := &vm.Module{
		Name: "m",
		Ints: []int64{ret},
		Strs: []string{"m:target"},
		Fns: []vm.Func{
			{Name: "target", Code: []vm.Instr{
				{Op: vm.OpPushInt, A: 0},
				{Op: vm.OpReturn},
			}},
			{Name: "caller", Code: []vm.Instr{
				{Op: vm.OpCallNamed, A: 0, B: 0},
				{Op: vm.OpReturn},
			}},
		},
	}
	if err := vm.Verify(m); err != nil {
		t.Fatalf("caller/target module: %v", err)
	}
	return m
}

// TestICEpochInvalidation warms a call-site inline cache through a
// namespace, then installs a trusted module that shadows the cached
// callee. The epoch bump must invalidate the cache: the next Run sees
// the trusted implementation.
func TestICEpochInvalidation(t *testing.T) {
	ts, err := loader.NewTrustedSet()
	if err != nil {
		t.Fatal(err)
	}
	own := callerTargetModule(t, 1)
	ns, err := loader.NewNamespace(ts, []vm.Module{*own}, false)
	if err != nil {
		t.Fatal(err)
	}
	env := vm.NewEnv()
	env.Resolver = ns
	mod, err := ns.Module("m")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // warm the inline cache
		v, err := vm.Run(env, mod, "caller")
		if err != nil || v.Int != 1 {
			t.Fatalf("warm run %d: v=%v err=%v, want 1", i, v, err)
		}
	}
	if err := ts.InstallTrusted(callerTargetModule(t, 2)); err != nil {
		t.Fatal(err)
	}
	v, err := vm.Run(env, mod, "caller")
	if err != nil {
		t.Fatal(err)
	}
	if v.Int != 2 {
		t.Fatalf("post-install call returned %d; inline cache survived the epoch bump", v.Int)
	}
}

// TestManifestEquality analyzes a module before and after Prepare and
// requires identical access manifests and host-call records: fusion
// must be invisible to admission control.
func TestManifestEquality(t *testing.T) {
	m := fuzzModule(seedBytes([]vm.Instr{
		{Op: vm.OpLoadLocal, A: 0},
		{Op: vm.OpPushInt, A: 1},
		{Op: vm.OpAdd},
		{Op: vm.OpHostCall, A: 1, B: 1}, // get_resource(x+1)
		{Op: vm.OpPop},
		{Op: vm.OpLoadLocal, A: 0},
		{Op: vm.OpPushInt, A: 0},
		{Op: vm.OpGt},
		{Op: vm.OpJumpIfFalse, A: 12},
		{Op: vm.OpPushStr, A: 2},
		{Op: vm.OpHostCall, A: 2, B: 1}, // log("log")
		{Op: vm.OpPop},
		{Op: vm.OpPushInt, A: 1},
		{Op: vm.OpReturn},
	}))
	canon, err := analysis.AnalyzeModule(m)
	if err != nil {
		t.Fatalf("analyze canonical: %v", err)
	}
	prep, err := analysis.AnalyzeModule(vm.Prepare(m))
	if err != nil {
		t.Fatalf("analyze prepared: %v", err)
	}
	if !reflect.DeepEqual(canon.Manifest, prep.Manifest) {
		t.Fatalf("manifests differ:\ncanonical: %+v\nprepared:  %+v", canon.Manifest, prep.Manifest)
	}
	if len(canon.Funcs) != len(prep.Funcs) {
		t.Fatalf("func count differs: %d vs %d", len(canon.Funcs), len(prep.Funcs))
	}
	for i := range canon.Funcs {
		if !reflect.DeepEqual(canon.Funcs[i].HostCalls, prep.Funcs[i].HostCalls) {
			t.Fatalf("func %d host calls differ:\ncanonical: %+v\nprepared:  %+v",
				i, canon.Funcs[i].HostCalls, prep.Funcs[i].HostCalls)
		}
	}
}

// TestWireCanonicality checks every transfer choke point rejects fused
// bytecode and that executing through a namespace never contaminates
// the canonical bundle.
func TestWireCanonicality(t *testing.T) {
	canon := countdownModule(t)
	fused := vm.Prepare(canon)

	if _, err := agent.New(credsZero(), "fuzz", []vm.Module{*fused}, agent.Itinerary{}); !errors.Is(err, agent.ErrFusedCode) {
		t.Fatalf("agent.New accepted fused code: %v", err)
	}

	a, err := agent.New(credsZero(), "fuzz", []vm.Module{*canon}, agent.Itinerary{})
	if err != nil {
		t.Fatal(err)
	}
	a.Code = []vm.Module{*fused}
	if _, err := a.Encode(); !errors.Is(err, agent.ErrFusedCode) {
		t.Fatalf("Encode accepted fused code: %v", err)
	}

	// A malicious sender bypassing Encode: the codec's bytes for the
	// fused bundle.
	if _, err := agent.Decode(fusedWire(t, a, fused)); !errors.Is(err, agent.ErrFusedCode) {
		t.Fatalf("Decode accepted fused code: %v", err)
	}

	// Executing via a namespace must leave the agent's bundle canonical.
	a.Code = []vm.Module{*canon}
	ts, err := loader.NewTrustedSet()
	if err != nil {
		t.Fatal(err)
	}
	ns, err := loader.NewNamespace(ts, a.Code, false)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := ns.Module("fuzz")
	if err != nil {
		t.Fatal(err)
	}
	env := vm.NewEnv()
	env.Resolver = ns
	if _, err := vm.Run(env, mod, "f", vm.I(5)); err != nil {
		t.Fatal(err)
	}
	if vm.BundleHasFused(a.Code) {
		t.Fatal("running through the namespace fused the canonical bundle")
	}
	if _, err := a.Encode(); err != nil {
		t.Fatalf("canonical agent no longer encodes: %v", err)
	}
}

// fusedWire builds the agent codec's bytes for a with its bundle
// replaced by fused — the bytes Encode refuses to produce. Two canonical
// stand-ins, which put OpNop or OpPop where fused has a fused opcode,
// encode to bytes that differ exactly at those opcodes; writing the
// fused opcodes there, in order, spells the fused bundle.
func fusedWire(t *testing.T, a *agent.Agent, fused *vm.Module) []byte {
	t.Helper()
	var ops []vm.Opcode
	standIn := func(op vm.Opcode) []byte {
		m := *fused
		m.Fns = make([]vm.Func, len(fused.Fns))
		copy(m.Fns, fused.Fns)
		for i := range m.Fns {
			f := &m.Fns[i]
			f.Code = append([]vm.Instr(nil), f.Code...)
			for j := range f.Code {
				if f.Code[j].Op.Fused() {
					f.Code[j].Op = op
				}
			}
		}
		b := *a
		b.Code = []vm.Module{m}
		data, err := b.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for i := range fused.Fns {
		for _, ins := range fused.Fns[i].Code {
			if ins.Op.Fused() {
				ops = append(ops, ins.Op)
			}
		}
	}
	out, other := standIn(vm.OpNop), standIn(vm.OpPop)
	k := 0
	for i := range out {
		if out[i] != other[i] {
			if k == len(ops) {
				t.Fatal("stand-ins differ beyond the fused opcodes")
			}
			out[i] = byte(ops[k])
			k++
		}
	}
	if len(ops) == 0 || k != len(ops) {
		t.Fatalf("placed %d of %d fused opcodes", k, len(ops))
	}
	return out
}

// TestGlobalsLiveBetweenRuns checks the slot optimization is invisible
// between Runs: stores flush to Env.Globals at settlement and external
// mutations are picked up at the next Run.
func TestGlobalsLiveBetweenRuns(t *testing.T) {
	// bump(): g = g + 1; return g
	m := fuzzModule(seedBytes([]vm.Instr{
		{Op: vm.OpLoadGlobal, A: 0},
		{Op: vm.OpPushInt, A: 1},
		{Op: vm.OpAdd},
		{Op: vm.OpStoreGlobal, A: 0},
		{Op: vm.OpLoadGlobal, A: 0},
		{Op: vm.OpReturn},
	}))
	if err := vm.Verify(m); err != nil {
		t.Fatal(err)
	}
	env := diffEnv(vm.Prepare(m), 0)
	env.Globals["go"] = vm.I(10) // Strs[0] is "go"; reused as the global's name
	v, err := vm.Run(env, vm.Prepare(m), "f", vm.Nil())
	if err != nil || v.Int != 11 {
		t.Fatalf("first bump: v=%v err=%v, want 11", v, err)
	}
	if g := env.Globals["go"]; g.Int != 11 {
		t.Fatalf("global not flushed: %v", g)
	}
	env.Globals["go"] = vm.I(100) // external mutation between Runs
	v, err = vm.Run(env, vm.Prepare(m), "f", vm.Nil())
	if err != nil || v.Int != 101 {
		t.Fatalf("second bump: v=%v err=%v, want 101 (stale slot?)", v, err)
	}
}

// TestNestedRunSharesGlobals runs a host function that re-enters the VM
// on the same environment; the inner Run must see and update the same
// live globals as the outer one.
func TestNestedRunSharesGlobals(t *testing.T) {
	// outer(): g = 1; log() [re-enters the VM]; return g
	outer := fuzzModule(seedBytes([]vm.Instr{
		{Op: vm.OpPushInt, A: 1},
		{Op: vm.OpStoreGlobal, A: 0},
		{Op: vm.OpHostCall, A: 2, B: 0}, // Strs[2] = "log", rebound below
		{Op: vm.OpPop},
		{Op: vm.OpLoadGlobal, A: 0},
		{Op: vm.OpReturn},
	}))
	// inner(): g = g + 1; return g
	inner := fuzzModule(seedBytes([]vm.Instr{
		{Op: vm.OpLoadGlobal, A: 0},
		{Op: vm.OpPushInt, A: 1},
		{Op: vm.OpAdd},
		{Op: vm.OpStoreGlobal, A: 0},
		{Op: vm.OpLoadGlobal, A: 0},
		{Op: vm.OpReturn},
	}))
	if err := vm.Verify(outer); err != nil {
		t.Fatal(err)
	}
	if err := vm.Verify(inner); err != nil {
		t.Fatal(err)
	}
	pOuter, pInner := vm.Prepare(outer), vm.Prepare(inner)
	env := diffEnv(pOuter, 0)
	var innerResult vm.Value
	env.Host["log"] = func(args []vm.Value) (vm.Value, error) {
		v, err := vm.Run(env, pInner, "f", vm.Nil())
		innerResult = v
		return v, err
	}
	v, err := vm.Run(env, pOuter, "f", vm.Nil())
	if err != nil {
		t.Fatal(err)
	}
	if innerResult.Int != 2 {
		t.Fatalf("inner saw g=%v, want 2 (outer's store invisible to nested Run)", innerResult)
	}
	if v.Int != 2 {
		t.Fatalf("outer returned %v, want 2 (inner's store invisible after nested Run)", v)
	}
	if g := env.Globals["go"]; g.Int != 2 {
		t.Fatalf("flushed global %v, want 2", g)
	}
}

// credsZero is a credentials record with no pinned digest: agent.New
// skips the digest check, which is not under test here.
func credsZero() cred.Credentials { return cred.Credentials{} }
