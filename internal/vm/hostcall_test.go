package vm_test

import (
	"testing"

	"repro/internal/asl"
	"repro/internal/vm"
)

// hostEnv compiles and prepares src and returns an environment with
// the builtins and the given host functions installed.
func hostEnv(t *testing.T, src string, host map[string]vm.HostFunc) (*vm.Env, *vm.Module) {
	t.Helper()
	mod, err := asl.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Verify(mod); err != nil {
		t.Fatal(err)
	}
	prep := vm.Prepare(mod)
	env := vm.NewEnv()
	env.Meter = vm.NewMeter(0) // unlimited, but metering stays on
	env.Resolver = vm.ModuleResolver{M: prep}
	vm.InstallBuiltins(env)
	for name, hf := range host {
		env.Host[name] = hf
	}
	return env, prep
}

// TestHostCallLoopAllocatesNothing guards the borrowed argument window:
// a loop that crosses the host boundary every iteration (the C14 host
// mix) into a host function that allocates nothing must itself
// allocate nothing once the environment's arena is warm.
func TestHostCallLoopAllocatesNothing(t *testing.T) {
	env, mod := hostEnv(t, `module h
func hostwork(n) {
  var i = 0
  var acc = 0
  while i < n {
    acc = acc + ping(i)
    i = i + 1
  }
  return acc
}`, map[string]vm.HostFunc{
		"ping": func(args []vm.Value) (vm.Value, error) { return args[0], nil },
	})
	argv := []vm.Value{vm.I(500)}
	run := func() {
		v, err := vm.Run(env, mod, "hostwork", argv...)
		if err != nil || v.Int != 500*499/2 {
			t.Fatalf("hostwork = %v, %v", v, err)
		}
	}
	run() // grow the arena and fill the inline caches
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Fatalf("host-call loop allocates %v times per run, want 0", n)
	}
}

// TestHostAppendCannotReachCallerStack: the window a host function
// borrows has its capacity capped at its length, so appending to it
// reallocates. A host function that keeps what it appended to (legal:
// the result is its own slice) and writes to it later must not change
// the stack slots the interpreter hands to a later frame's locals.
func TestHostAppendCannotReachCallerStack(t *testing.T) {
	var kept []vm.Value
	env, mod := hostEnv(t, `module h
func callee(x) {
  var y = x + 1
  var z = x + 2
  poke()
  return [x, y, z]
}
func main() {
  var r = keep(7)
  return [r, callee(5)]
}`, map[string]vm.HostFunc{
		"keep": func(args []vm.Value) (vm.Value, error) {
			if cap(args) != len(args) {
				t.Errorf("window cap %d, len %d", cap(args), len(args))
			}
			kept = append(args, vm.I(-1), vm.I(-1), vm.I(-1), vm.I(-1))
			return args[0], nil
		},
		"poke": func(args []vm.Value) (vm.Value, error) {
			for i := range kept {
				kept[i] = vm.I(-99)
			}
			return vm.Nil(), nil
		},
	})
	v, err := vm.Run(env, mod, "main")
	if err != nil {
		t.Fatal(err)
	}
	want := vm.L(vm.I(7), vm.L(vm.I(5), vm.I(6), vm.I(7)))
	if !v.Equal(want) {
		t.Fatalf("main = %v, want %v: a host append reached the VM stack", v, want)
	}
}
