package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cred"
	"repro/internal/names"
	"repro/internal/policy"
	"repro/internal/vm"
)

// TestDispatchRestrictionNarrowsRights: a forwarding server appends a
// delegation link (§5.2's subcontract); the downstream server's proxy
// reflects the narrowed rights, and the chain verifies end to end.
func TestDispatchRestrictionNarrowsRights(t *testing.T) {
	p := mustPlatform(t)
	// gateway forwards agents but strips everything except counter.get.
	gateway, err := p.StartServer("gateway", "gw:7000", ServerConfig{
		DispatchRestriction: cred.NewRightSet("counter.get"),
	})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := p.StartServer("inner", "inner:7000", ServerConfig{
		Rules: openRules("counter"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := InstallResource(inner, CounterResource(names.Resource("umn.edu", "counter"), "counter")); err != nil {
		t.Fatal(err)
	}
	home, err := p.StartServer("home", "home:7000", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := p.NewOwner("alice")
	a, err := p.BuildAgent(AgentSpec{
		Owner: owner,
		Name:  "subcontract",
		Source: `module sc
func noop() { }
func probe() {
  var c = get_resource("ajanta:resource:umn.edu/counter")
  report(resource_methods(c))
}`,
		Itinerary: agent.Sequence("", names.Name{}), // replaced below
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Itinerary = agent.Itinerary{Stops: []agent.Stop{
		{Servers: []names.Name{gateway.Name()}, Entry: "noop"},
		{Servers: []names.Name{inner.Name()}, Entry: "probe"},
	}}
	back, err := p.LaunchAndWait(home, a, waitTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 1 {
		t.Fatalf("results = %v, log = %v", back.Results, back.Log)
	}
	methods := back.Results[0]
	if len(methods.List) != 1 || !methods.List[0].Equal(vm.S("get")) {
		t.Fatalf("enabled after subcontract = %v, want [get]", methods)
	}
	// The chain carries the gateway's signed link and still verifies.
	if len(back.Credentials.Delegations) == 0 {
		t.Fatal("no delegation link recorded")
	}
	if back.Credentials.Delegations[0].Delegator != gateway.Name() {
		t.Fatalf("delegator = %v", back.Credentials.Delegations[0].Delegator)
	}
	if err := back.Credentials.Verify(p.CA.Verifier(), time.Now()); err != nil {
		t.Fatalf("chain broken: %v", err)
	}
}

// TestImpostorModuleLive: an agent ships a module shadowing the server's
// trusted library; the trusted code wins at the hosting server (C11 on
// the full platform).
func TestImpostorModuleLive(t *testing.T) {
	p := mustPlatform(t)
	srv, err := p.StartServer("s1", "s1:7000", ServerConfig{
		TrustedSources: []string{`module stdlib
func audit() { return "trusted-audit" }`},
	})
	if err != nil {
		t.Fatal(err)
	}
	home, err := p.StartServer("home", "home:7000", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := p.NewOwner("mallory")
	a, err := p.BuildAgent(AgentSpec{
		Owner: owner,
		Name:  "impostor-carrier",
		Source: `module app
func main() { report(stdlib:audit()) }`,
		ExtraSources: []string{`module stdlib
func audit() { return "impostor-audit" }`},
		Itinerary: agent.Sequence("main", srv.Name()),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.LaunchAndWait(home, a, waitTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 1 || !back.Results[0].Equal(vm.S("trusted-audit")) {
		t.Fatalf("results = %v, log = %v", back.Results, back.Log)
	}
}

// TestStrictNamespaceRejectsShadowing: with StrictNamespaces the same
// bundle is turned away and the agent fails home.
func TestStrictNamespaceRejectsShadowing(t *testing.T) {
	p := mustPlatform(t)
	srv, err := p.StartServer("s1", "s1:7000", ServerConfig{
		StrictNamespaces: true,
		TrustedSources: []string{`module stdlib
func audit() { return "trusted" }`},
	})
	if err != nil {
		t.Fatal(err)
	}
	home, err := p.StartServer("home", "home:7000", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := p.NewOwner("mallory")
	a, err := p.BuildAgent(AgentSpec{
		Owner: owner,
		Name:  "strict-reject",
		Source: `module app
func main() { report(1) }`,
		ExtraSources: []string{`module stdlib
func audit() { return "impostor" }`},
		Itinerary: agent.Sequence("main", srv.Name()),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.LaunchAndWait(home, a, waitTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 0 {
		t.Fatalf("shadowing bundle executed: %v", back.Results)
	}
	if !strings.Contains(strings.Join(back.Log, "\n"), "shadows a trusted module") {
		t.Fatalf("log = %v", back.Log)
	}
}

// TestTrustedModulesCallable: agents may call the server's trusted
// library explicitly.
func TestTrustedModulesCallable(t *testing.T) {
	p := mustPlatform(t)
	srv, err := p.StartServer("s1", "s1:7000", ServerConfig{
		TrustedSources: []string{`module mathlib
func cube(x) { return x * x * x }`},
	})
	if err != nil {
		t.Fatal(err)
	}
	home, err := p.StartServer("home", "home:7000", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := p.NewOwner("alice")
	a, err := p.BuildAgent(AgentSpec{
		Owner: owner,
		Name:  "libuser",
		Source: `module app
func main() { report(mathlib:cube(7)) }`,
		Itinerary: agent.Sequence("main", srv.Name()),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.LaunchAndWait(home, a, waitTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 1 || !back.Results[0].Equal(vm.I(343)) {
		t.Fatalf("results = %v, log = %v", back.Results, back.Log)
	}
}

// TestMaxAgentsCapacity: admission control rejects agents beyond the
// configured capacity, and the rejection surfaces at the sender.
func TestMaxAgentsCapacity(t *testing.T) {
	p := mustPlatform(t)
	srv, err := p.StartServer("s1", "s1:7000", ServerConfig{MaxAgents: 1, Fuel: 0})
	if err != nil {
		t.Fatal(err)
	}
	home, err := p.StartServer("home", "home:7000", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := p.NewOwner("alice")
	spinner, err := p.BuildAgent(AgentSpec{
		Owner: owner, Name: "occupier",
		Source:    "module s\nfunc main() { while true { } }",
		Itinerary: agent.Sequence("main", srv.Name()),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	occCh, err := p.Launch(home, spinner)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(waitTime)
	for {
		if st, ok := srv.AgentStatus(spinner.Name); ok && st == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("occupier never started")
		}
		time.Sleep(time.Millisecond)
	}

	second, err := p.BuildAgent(AgentSpec{
		Owner: owner, Name: "turned-away",
		Source:    "module t\nfunc main() { report(1) }",
		Itinerary: agent.Sequence("main", srv.Name()),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.LaunchAndWait(home, second, waitTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 0 {
		t.Fatal("agent ran despite capacity limit")
	}
	if !strings.Contains(strings.Join(back.Log, "\n"), "capacity") {
		t.Fatalf("log = %v", back.Log)
	}
	// Release the occupier.
	if err := srv.Kill(owner.Name, spinner.Name); err != nil {
		t.Fatal(err)
	}
	<-occCh
}

// TestPolicyQuotaThroughPlatform: a policy quota limits an agent's
// proxy invocations end to end.
func TestPolicyQuotaThroughPlatform(t *testing.T) {
	p := mustPlatform(t)
	srv, err := p.StartServer("s1", "s1:7000", ServerConfig{
		Rules: []policy.Rule{{
			AnyPrincipal: true, Resource: "counter", Methods: []string{"*"},
			Quota: policy.Quota{MaxInvocations: 3},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := InstallResource(srv, CounterResource(names.Resource("umn.edu", "counter"), "counter")); err != nil {
		t.Fatal(err)
	}
	home, err := p.StartServer("home", "home:7000", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := p.NewOwner("alice")
	a, err := p.BuildAgent(AgentSpec{
		Owner: owner, Name: "greedy",
		Source: `module g
func main() {
  var c = get_resource("ajanta:resource:umn.edu/counter")
  var i = 0
  while i < 10 {
    invoke(c, "add", 1)
    i = i + 1
  }
}`,
		Itinerary: agent.Sequence("main", srv.Name()),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.LaunchAndWait(home, a, waitTime)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(back.Log, "\n"), "quota") {
		t.Fatalf("log = %v", back.Log)
	}
}

// TestMailboxCannotClaimHostPolicyPath: make_mailbox adds an owner rule
// (full access) keyed by the policy path the agent picks. A path the
// host's counter already answers to, or the wildcard "*" that matches
// every path, must be refused, so the same owner's access to the
// counter stays denied before and after the attempt.
func TestMailboxCannotClaimHostPolicyPath(t *testing.T) {
	for _, path := range []string{"counter", "*", ""} {
		t.Run("path="+path, func(t *testing.T) {
			p := mustPlatform(t)
			srv, err := p.StartServer("s1", "s1:7000", ServerConfig{}) // default-deny policy
			if err != nil {
				t.Fatal(err)
			}
			if err := InstallResource(srv, CounterResource(names.Resource("umn.edu", "counter"), "counter")); err != nil {
				t.Fatal(err)
			}
			home, err := p.StartServer("home", "home:7000", ServerConfig{})
			if err != nil {
				t.Fatal(err)
			}
			mallory, _ := p.NewOwner("mallory")
			run := func(name, body string) *agent.Agent {
				t.Helper()
				a, err := p.BuildAgent(AgentSpec{
					Owner:     mallory,
					Name:      name,
					Source:    "module m\nfunc main() {\n" + body + "\n}",
					Itinerary: agent.Sequence("main", srv.Name()),
					Home:      home,
				})
				if err != nil {
					t.Fatal(err)
				}
				back, err := p.LaunchAndWait(home, a, waitTime)
				if err != nil {
					t.Fatal(err)
				}
				return back
			}
			probe := func(name string) {
				t.Helper()
				back := run(name, `  var c = get_resource("ajanta:resource:umn.edu/counter")
  report(invoke(c, "get"))`)
				if len(back.Results) != 0 || !strings.Contains(strings.Join(back.Log, "\n"), "access denied") {
					t.Fatalf("%s: counter access not denied: results %v, log %v", name, back.Results, back.Log)
				}
			}

			probe("before")
			claim := run("claim", `  make_mailbox("ajanta:resource:umn.edu/mine", "`+path+`")
  report("claimed")`)
			probe("after")
			if len(claim.Results) != 0 || !strings.Contains(strings.Join(claim.Log, "\n"), "policy path unavailable") {
				t.Fatalf("make_mailbox with path %q not refused: results %v, log %v", path, claim.Results, claim.Log)
			}
			if n := srv.Registry().Len(); n != 1 {
				t.Fatalf("registry holds %d entries after a refused mailbox, want 1", n)
			}
		})
	}
}

// TestSelfContainingStateParksAtSender: an agent that stores a list
// inside itself cannot crash its host on departure. Sanitizing and
// encoding stop at agent.MaxValueDepth; the encode error is permanent,
// so the agent is parked at the server it could not leave, without
// retries, and that server keeps hosting other agents.
func TestSelfContainingStateParksAtSender(t *testing.T) {
	p := mustPlatform(t)
	s1, err := p.StartServer("s1", "s1:7000", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.StartServer("s2", "s2:7000", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	home, err := p.StartServer("home", "home:7000", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := p.NewOwner("alice")
	a, err := p.BuildAgent(AgentSpec{
		Owner: owner, Name: "loop",
		Source: `module m
var x = 0
func visit() {
  var l = [0]
  l[0] = l
  x = l
}`,
		Itinerary: agent.Sequence("visit", s1.Name(), s2.Name()),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := home.LaunchLocal(a); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(waitTime)
	for s1.Stats().Parked == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("agent not parked at s1: %+v", s1.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := s1.Stats(); st.Retries != 0 || st.Dispatches != 0 {
		t.Fatalf("an encode failure was retried or sent: %+v", st)
	}
	ok, err := p.BuildAgent(AgentSpec{
		Owner: owner, Name: "after",
		Source:    "module m\nfunc visit() { report(1) }",
		Itinerary: agent.Sequence("visit", s1.Name(), s2.Name()),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LaunchAndWait(home, ok, waitTime); err != nil {
		t.Fatalf("s1 stopped hosting after the parked agent: %v", err)
	}
}
