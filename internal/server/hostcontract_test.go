package server

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/asl"
	"repro/internal/domain"
	"repro/internal/loader"
	"repro/internal/names"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/resource"
	"repro/internal/vm"
)

// The host-call contract (vm.HostFunc): a host function borrows its
// argument slice from the caller's VM stack. It may keep the Values it
// receives but never the slice. The tests below hold every host
// function a visit installs to that contract by overwriting the
// borrowed window with poison after each call: an agent's results must
// not change.

// windowPoison is what every borrowed argument slot holds once a host
// function has returned.
var windowPoison = vm.S("\x00poisoned host-call window")

// poisonHostWindows wraps every host function installed in env so that
// the argument window it was handed is overwritten after it returns.
func poisonHostWindows(env *vm.Env) {
	for name, hf := range env.Host {
		env.Host[name] = func(args []vm.Value) (vm.Value, error) {
			v, err := hf(args)
			for i := range args {
				args[i] = windowPoison
			}
			return v, err
		}
	}
}

// contractApp crosses the host boundary through the builtins, report,
// log, a server resource, its own mailbox and a resource it installs,
// passing aggregates as well as scalars.
const contractApp = `module app
var seen = []
func main() {
  var l = append([1, 2], 3, "x")
  report(l)
  log(l)
  report(len(l))
  report(str(l) + join(split("a,b", ","), "+"))
  report(contains(l, "x"))
  report(keys({"b": 1, "a": 2}))
  var e = get_resource("ajanta:resource:umn.edu/echo")
  report(invoke(e, "sum", 1, 2, 3))
  report(invoke(e, "pair", "left", [4, 5]))
  report(len(resource_methods(e)))
  make_mailbox("ajanta:resource:umn.edu/contract-mbox", "contract-mbox")
  var mb = get_resource("ajanta:resource:umn.edu/contract-mbox")
  invoke(mb, "send", ["hello", 7])
  invoke(mb, "send", {"k": [8, 9]})
  report(recv())
  report(recv())
  install_resource("ajanta:resource:umn.edu/contract-svc", "svc", "contract-svc")
  var d = get_resource("ajanta:resource:umn.edu/contract-svc")
  report(invoke(d, "put", "w", [1, [2, 3]]))
  report(invoke(d, "get", "w"))
  seen = append(seen, agent_name(), hops())
  report(seen)
}`

const contractSvc = `module svc
var table = {}
func put(k, v) { table[k] = v return len(table) }
func get(k) { return table[k] }`

// echoResource is a server resource whose methods keep the Values they
// are given (in a fresh list) and nothing else.
func echoResource() *resource.Def {
	return &resource.Def{
		ResourceImpl: resource.NewImpl(names.Resource("umn.edu", "echo"),
			names.Principal("umn.edu", "admin"), "echo"),
		Path: "echo",
		Methods: map[string]resource.Method{
			"sum": func(args []vm.Value) (vm.Value, error) {
				var n int64
				for _, a := range args {
					n += a.Int
				}
				return vm.I(n), nil
			},
			"pair": func(args []vm.Value) (vm.Value, error) {
				return vm.L(args[0], args[1]), nil
			},
		},
	}
}

// contractVisit runs contractApp's main as one visit on a fresh server,
// through the same visit construction hosting uses, after letting wrap
// replace or wrap the visit's host functions. It returns the agent as
// it would travel home.
func contractVisit(t *testing.T, wrap func(v *visit)) *agent.Agent {
	t.Helper()
	f := newFixture(t)
	cfg := f.config(t, "s1", "s1:7000")
	cfg.InstalledResourcePolicy = true
	cfg.Policy.AddRule(policy.Rule{AnyPrincipal: true, Resource: "echo", Methods: []string{"*"}})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	def := echoResource()
	if err := s.InstallResource(registry.Entry{
		Name: def.Name, Resource: def, AP: def,
		OwnerDomain: domain.ServerID, OwnerPrincipal: def.Owner,
	}); err != nil {
		t.Fatal(err)
	}

	a := f.agent(t, "contract", contractApp, agent.Itinerary{}, "")
	svc, err := asl.Compile(contractSvc)
	if err != nil {
		t.Fatal(err)
	}
	a.Code = append(a.Code, *svc)
	dom, err := s.db.Admit(domain.ServerID, &a.Credentials)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := loader.NewNamespace(mustTrusted(t), a.Code, false)
	if err != nil {
		t.Fatal(err)
	}
	v := s.newVisit(a, dom, ns, vm.DefaultFuel)
	if wrap != nil {
		wrap(v)
	}
	mod, err := ns.Module("app")
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range []string{asl.InitFunc, "main"} {
		if _, err := vm.Run(v.env, mod, entry); err != nil {
			t.Fatalf("%s: %v (log %v)", entry, err, a.Log)
		}
	}
	return a
}

// journeyDiff describes how got's results, log and state differ from
// want's; "" when they agree.
func journeyDiff(want, got *agent.Agent) string {
	var d []string
	if len(want.Results) != len(got.Results) {
		d = append(d, fmt.Sprintf("%d results, want %d", len(got.Results), len(want.Results)))
	} else {
		for i := range want.Results {
			if !want.Results[i].Equal(got.Results[i]) {
				d = append(d, fmt.Sprintf("result %d = %v, want %v", i, got.Results[i], want.Results[i]))
			}
		}
	}
	if strings.Join(want.Log, "\n") != strings.Join(got.Log, "\n") {
		d = append(d, fmt.Sprintf("log = %q, want %q", got.Log, want.Log))
	}
	for k, w := range want.State {
		if g, ok := got.State[k]; !ok || !w.Equal(g) {
			d = append(d, fmt.Sprintf("global %s = %v, want %v", k, g, w))
		}
	}
	return strings.Join(d, "; ")
}

func TestHostFuncsKeepNoArgumentWindow(t *testing.T) {
	want := contractVisit(t, nil)
	// The plain run must itself be the journey the agent describes, so
	// agreement below cannot come from two runs failing alike.
	if len(want.Results) != 13 || len(want.Log) != 1 {
		t.Fatalf("plain visit: %d results %v, log %v", len(want.Results), want.Results, want.Log)
	}
	for i, w := range []string{
		`[1, 2, 3, "x"]`, `4`, `"[1, 2, 3, \"x\"]a+b"`, `true`, `["a", "b"]`, `6`,
		`["left", [4, 5]]`, `2`, `["hello", 7]`, `{"k": [8, 9]}`,
		`1`, `[1, [2, 3]]`, `["ajanta:agent:umn.edu/contract", 0]`,
	} {
		if got := want.Results[i].String(); got != w {
			t.Fatalf("plain visit result %d = %s, want %s", i, got, w)
		}
	}
	got := contractVisit(t, func(v *visit) { poisonHostWindows(v.env) })
	if d := journeyDiff(want, got); d != "" {
		t.Fatalf("a host function kept its argument window: %s", d)
	}
}

// listReport is report written to record each call's arguments as one
// list. With keepWindow it builds that list on the borrowed slice
// itself, vm.L(args...), which keeps the slice past the call and breaks
// the contract; without, it copies the Values first.
func listReport(a *agent.Agent, keepWindow bool) vm.HostFunc {
	return func(args []vm.Value) (vm.Value, error) {
		if !keepWindow {
			args = append([]vm.Value(nil), args...)
		}
		a.Results = append(a.Results, vm.L(args...))
		return vm.Nil(), nil
	}
}

// TestHostWindowPoisonCatchesRetention shows the contract test can fail:
// two poisoned visits whose report differs only in keeping the borrowed
// slice must not agree.
func TestHostWindowPoisonCatchesRetention(t *testing.T) {
	plain := contractVisit(t, nil)
	want := contractVisit(t, func(v *visit) {
		v.env.Host["report"] = listReport(v.agent, false)
		poisonHostWindows(v.env)
	})
	// The copying report records what the standard one does, one list
	// per call, so the comparison below is against the real journey.
	if len(want.Results) != len(plain.Results) {
		t.Fatalf("copying report: %d results, want %d", len(want.Results), len(plain.Results))
	}
	for i, r := range want.Results {
		if len(r.List) != 1 || !r.List[0].Equal(plain.Results[i]) {
			t.Fatalf("copying report result %d = %v, want [%v]", i, r, plain.Results[i])
		}
	}
	got := contractVisit(t, func(v *visit) {
		v.env.Host["report"] = listReport(v.agent, true) // violates the contract
		poisonHostWindows(v.env)
	})
	if journeyDiff(want, got) == "" {
		t.Fatal("a report that keeps its argument window went unnoticed")
	}
}
