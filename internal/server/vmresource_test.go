package server

import (
	"sync"
	"testing"

	"repro/internal/agent"
	"repro/internal/asl"
	"repro/internal/domain"
	"repro/internal/loader"
	"repro/internal/names"
	"repro/internal/resource"
	"repro/internal/vm"
)

// installVMResource installs module svc, carried by a fresh agent, as a
// VM resource and returns its methods, the installing agent and its
// namespace.
func installVMResource(t *testing.T, svc string) (map[string]resource.Method, *agent.Agent, *loader.Namespace) {
	t.Helper()
	f := newFixture(t)
	s, err := New(f.config(t, "s1", "s1:7000"))
	if err != nil {
		t.Fatal(err)
	}
	a := f.agent(t, "inst", "module app\nfunc main() { return 1 }", agent.Itinerary{}, "")
	mod, err := asl.Compile(svc)
	if err != nil {
		t.Fatal(err)
	}
	a.Code = append(a.Code, *mod)
	ns, err := loader.NewNamespace(mustTrusted(t), a.Code, false)
	if err != nil {
		t.Fatal(err)
	}
	v := &visit{agent: a, dom: domain.ID(2), ns: ns}
	def, err := s.newVMResource(v, names.Resource("umn.edu", mod.Name), mod.Name, mod.Name)
	if err != nil {
		t.Fatal(err)
	}
	return def.Methods, a, ns
}

// TestVMResourceCallReusesEnv: a method call of an installed resource
// runs in the environment built at install time, so a call allocates
// only its fresh fuel meter — not a new environment, host table and
// stack arena.
func TestVMResourceCallReusesEnv(t *testing.T) {
	m, _, _ := installVMResource(t, `module counter
var state = 0
func bump(by) { state = state + len(str(by)) return state }`)
	argv := []vm.Value{vm.I(5)}
	if _, err := m["bump"](argv); err != nil {
		t.Fatal(err)
	}
	// The call's fresh fuel meter is its one allocation; building a
	// new environment per call cost 17.
	if n := testing.AllocsPerRun(50, func() {
		if _, err := m["bump"](argv); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("a method call allocates %v times, want at most 1", n)
	}
	out, err := m["bump"](argv)
	if err != nil || !out.Equal(vm.I(53)) {
		t.Fatalf("state after 53 calls = %v, %v", out, err)
	}
}

// TestVMResourceStateIsolated: the installed resource's globals are its
// own. The installing agent running the same module in its visit
// environment neither sees nor changes them.
func TestVMResourceStateIsolated(t *testing.T) {
	m, a, ns := installVMResource(t, `module counter
var state = 100
func bump(by) { state = state + by return state }`)
	if out, err := m["bump"]([]vm.Value{vm.I(1)}); err != nil || !out.Equal(vm.I(101)) {
		t.Fatalf("resource bump = %v, %v", out, err)
	}
	env := vm.NewEnv()
	env.Globals = a.State
	env.Resolver = ns
	mod, err := ns.Module("counter")
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{asl.InitFunc, "bump"} {
		var args []vm.Value
		if fn == "bump" {
			args = []vm.Value{vm.I(10)}
		}
		if _, err := vm.Run(env, mod, fn, args...); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.State["state"]; !got.Equal(vm.I(110)) {
		t.Fatalf("agent state = %v, want 110 (its own counter)", got)
	}
	if out, err := m["bump"]([]vm.Value{vm.I(1)}); err != nil || !out.Equal(vm.I(102)) {
		t.Fatalf("resource bump after the agent ran = %v, %v, want 102", out, err)
	}
}

// TestVMResourceRunsOwnCopy: the installing agent may keep running the
// resource's module in its own visit while other agents invoke the
// resource. The two share no inline caches, so this is race-free (run
// with -race) and each side keeps its own state.
func TestVMResourceRunsOwnCopy(t *testing.T) {
	m, a, ns := installVMResource(t, `module counter
var state = 0
func bump(by) { state = state + len(str(by)) return state }`)
	mod, err := ns.Module("counter")
	if err != nil {
		t.Fatal(err)
	}
	env := vm.NewEnv()
	env.Globals = a.State
	env.Resolver = ns
	vm.InstallBuiltins(env)
	if _, err := vm.Run(env, mod, asl.InitFunc); err != nil {
		t.Fatal(err)
	}
	const n = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if _, err := vm.Run(env, mod, "bump", vm.I(1)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var last vm.Value
	for i := 0; i < n; i++ {
		if last, err = m["bump"]([]vm.Value{vm.I(1)}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if !last.Equal(vm.I(n)) || !a.State["state"].Equal(vm.I(n)) {
		t.Fatalf("resource state %v, agent state %v, want %d each", last, a.State["state"], n)
	}
}

// TestVMResourceCopiesValues: lists cross into and out of an installed
// resource as copies. A writer that changes the list it stored, and a
// reader that changes the list get returned, change neither the
// resource's state nor what the next caller reads.
func TestVMResourceCopiesValues(t *testing.T) {
	m, _, _ := installVMResource(t, `module store
var table = {}
func put(k, v) { table[k] = v return true }
func get(k) { return table[k] }`)
	l := vm.L(vm.I(1), vm.I(2))
	if _, err := m["put"]([]vm.Value{vm.S("w"), l}); err != nil {
		t.Fatal(err)
	}
	l.List[0] = vm.I(99) // the writer's l[0] = 99 after put
	want := vm.L(vm.I(1), vm.I(2))
	got, err := m["get"]([]vm.Value{vm.S("w")})
	if err != nil || !got.Equal(want) {
		t.Fatalf("get after the writer's change = %v, %v, want %v", got, err, want)
	}
	got.List[1] = vm.I(-5) // a reader's write to the returned list
	if again, err := m["get"]([]vm.Value{vm.S("w")}); err != nil || !again.Equal(want) {
		t.Fatalf("get after a reader's change = %v, %v, want %v", again, err, want)
	}
}
