// BenchmarkC14_AgentWorkload: end-to-end interpreter throughput on
// representative agent workload mixes (experiment C14 in
// EXPERIMENTS.md). Each mix runs twice — through the production
// interpreter (vm.Run on the module the loader hands out, i.e. the
// exact code path a hosted visit executes) and through the preserved
// pre-optimization interpreter (baseline.NaiveInterp) — so the fast
// path's speedup is measured against a pinned baseline rather than
// against history. ns/op is the cost of one agent entry-function
// invocation ("agent-op"); instr/op reports the metered instruction
// count so per-instruction cost can be derived.
package ajanta_test

import (
	"testing"

	"repro/internal/asl"
	"repro/internal/baseline"
	"repro/internal/loader"
	"repro/internal/vm"
)

// benchC14Src is the C14 agent module: one entry per workload mix.
const benchC14Src = `module c14

var counter = 0

func fib(n) {
  if n < 2 {
    return n
  }
  return fib(n - 1) + fib(n - 2)
}

func fibwork(n) {
  return fib(n)
}

func loopwork(n) {
  var acc = 0
  var i = 0
  while i < n {
    acc = acc + i * 3 % 7
    i = i + 1
  }
  return acc
}

func mapwork(n) {
  var m = {"a": 0, "b": 1, "c": 2, "d": 3}
  var i = 0
  var acc = 0
  while i < n {
    m["a"] = m["a"] + 1
    m["b"] = m["b"] + m["a"] % 5
    acc = acc + m["b"] % 13
    m["d"] = acc
    i = i + 1
  }
  return acc + len(keys(m))
}

func hostwork(n) {
  var i = 0
  var acc = 0
  while i < n {
    acc = acc + ping(i)
    i = i + 1
  }
  return acc
}

func statework(n) {
  var i = 0
  while i < n {
    counter = counter + 1
    i = i + 1
  }
  return counter
}
`

// c14Mix describes one workload mix of the C14 benchmark.
type c14Mix struct {
	Name  string
	Entry string
	Arg   int64
}

// c14Mixes are the C14 workload mixes, one entry function of the
// module above each.
var c14Mixes = []c14Mix{
	// fib(15) is the call-heavy mix: ~2k intra-module OpCall frames per
	// agent-op — the path that must reach 0 allocs/op.
	{"fib", "fibwork", 15},
	// loopwork is the arithmetic mix: a tight while loop of
	// local/int ops, the superinstruction fusion target.
	{"loop", "loopwork", 500},
	// mapwork exercises aggregate index/set-index and the keys builtin.
	{"map", "mapwork", 200},
	// hostwork crosses the host-call boundary every iteration.
	{"host", "hostwork", 500},
	// statework hammers module globals (load/store-global interning).
	{"state", "statework", 500},
}

// benchC14Env builds the execution environment for one sub-benchmark:
// the module is resolved through a loader namespace exactly as a hosted
// visit would (after the fast-path work this is what hands out the
// prepared execution copy), with builtins plus the benchmark's ping
// host function installed.
func benchC14Env(b *testing.B) (*vm.Env, *vm.Module) {
	b.Helper()
	mod, err := asl.Compile(benchC14Src)
	if err != nil {
		b.Fatal(err)
	}
	ts, err := loader.NewTrustedSet()
	if err != nil {
		b.Fatal(err)
	}
	ns, err := loader.NewNamespace(ts, []vm.Module{*mod}, false)
	if err != nil {
		b.Fatal(err)
	}
	execMod, err := ns.Module("c14")
	if err != nil {
		b.Fatal(err)
	}
	env := vm.NewEnv()
	env.Meter = vm.NewMeter(0) // unlimited, but metering stays on
	env.Resolver = ns
	vm.InstallBuiltins(env)
	env.Host["ping"] = func(args []vm.Value) (vm.Value, error) {
		return args[0], nil
	}
	return env, execMod
}

func BenchmarkC14_AgentWorkload(b *testing.B) {
	for _, mix := range c14Mixes {
		mix := mix
		b.Run(mix.Name+"/fast", func(b *testing.B) {
			env, mod := benchC14Env(b)
			if _, err := vm.Run(env, mod, "__init__"); err != nil {
				b.Fatal(err)
			}
			argv := []vm.Value{vm.I(mix.Arg)}
			before := env.Meter.Used()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := vm.Run(env, mod, mix.Entry, argv...); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(env.Meter.Used()-before)/float64(b.N), "instr/op")
		})
		b.Run(mix.Name+"/naive", func(b *testing.B) {
			env, _ := benchC14Env(b)
			// The naive interpreter predates prepared execution copies:
			// it runs the canonical bundle the agent carries.
			canon, err := asl.Compile(benchC14Src)
			if err != nil {
				b.Fatal(err)
			}
			env.Resolver = vm.ModuleResolver{M: canon}
			var naive baseline.NaiveInterp
			if _, err := naive.Run(env, canon, "__init__"); err != nil {
				b.Fatal(err)
			}
			argv := []vm.Value{vm.I(mix.Arg)}
			before := env.Meter.Used()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := naive.Run(env, canon, mix.Entry, argv...); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(env.Meter.Used()-before)/float64(b.N), "instr/op")
		})
	}
}
