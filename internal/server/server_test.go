package server

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/asl"
	"repro/internal/cred"
	"repro/internal/domain"
	"repro/internal/keys"
	"repro/internal/loader"
	"repro/internal/names"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/retry"
	"repro/internal/vm"
)

type fixture struct {
	ca    *keys.Registry
	nw    *netsim.Network
	owner keys.Identity
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	ca, err := keys.NewRegistry(names.Principal("umn.edu", "ca"))
	if err != nil {
		t.Fatal(err)
	}
	owner, err := keys.NewIdentity(ca, names.Principal("umn.edu", "alice"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{ca: ca, nw: netsim.NewNetwork(), owner: owner}
}

func (f *fixture) config(t *testing.T, short, addr string) Config {
	t.Helper()
	id, err := keys.NewIdentity(f.ca, names.Server("umn.edu", short), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Identity:    id,
		Verifier:    f.ca.Verifier(),
		Address:     addr,
		NameService: names.NewService(),
		Policy:      policy.NewEngine(),
		Dial:        func(a string) (net.Conn, error) { return f.nw.DialFrom(addr, a) },
		Listen:      func(a string) (net.Listener, error) { return f.nw.Listen(a) },
	}
}

// fastRetry keeps failure-path tests quick: two attempts, millisecond
// backoff, no jitter.
func fastRetry() retry.Policy {
	return retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond,
		MaxDelay: 5 * time.Millisecond, Jitter: -1}
}

// startServer builds and starts a server sharing the fixture network
// and the given name service (so multi-server tests can dispatch).
func (f *fixture) startServer(t *testing.T, short, addr string, ns *names.Service) *Server {
	t.Helper()
	cfg := f.config(t, short, addr)
	cfg.NameService = ns
	cfg.Retry = fastRetry()
	cfg.RedeliverEvery = 20 * time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

func (f *fixture) agent(t *testing.T, name, src string, it agent.Itinerary, home string) *agent.Agent {
	t.Helper()
	return f.agentOf(t, f.owner, name, src, it, home)
}

// agentOf builds an agent like agent, owned by owner instead of the
// fixture's owner.
func (f *fixture) agentOf(t *testing.T, owner keys.Identity, name, src string, it agent.Itinerary, home string) *agent.Agent {
	t.Helper()
	c, err := cred.Issue(owner, names.Agent("umn.edu", name),
		owner.Name, cred.NewRightSet(cred.All), time.Hour, home)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := asl.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := agent.New(c, mod.Name, []vm.Module{*mod}, it)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("config without NameService accepted")
	}
	f := newFixture(t)
	cfg := f.config(t, "s1", "s1:7000")
	cfg.Listen = nil
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Fatal("Start without Listen succeeded")
	}
}

func TestStartBindsNameService(t *testing.T) {
	f := newFixture(t)
	cfg := f.config(t, "s1", "s1:7000")
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	b, err := cfg.NameService.Resolve(s.Name())
	if err != nil || b.Primary().Address != "s1:7000" {
		t.Fatalf("%+v %v", b, err)
	}
	s.Stop()
	if _, err := cfg.NameService.Resolve(s.Name()); err == nil {
		t.Fatal("still bound after Stop")
	}
}

func TestDescribeListsTrustedModules(t *testing.T) {
	f := newFixture(t)
	cfg := f.config(t, "s1", "s1:7000")
	lib, err := asl.Compile("module mathlib\nfunc id(x) { return x }")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := loader.NewTrustedSet(lib)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trusted = ts
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.Describe(), "mathlib") {
		t.Fatalf("Describe missing trusted module:\n%s", s.Describe())
	}
}

func TestKillUnknownAgent(t *testing.T) {
	f := newFixture(t)
	s, err := New(f.config(t, "s1", "s1:7000"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Kill(f.owner.Name, names.Agent("umn.edu", "ghost")); !errors.Is(err, ErrNoSuchAgent) {
		t.Fatalf("got %v", err)
	}
}

func TestAdmitRejections(t *testing.T) {
	f := newFixture(t)
	s, err := New(f.config(t, "s1", "s1:7000"))
	if err != nil {
		t.Fatal(err)
	}
	good := f.agent(t, "ok", "module m\nfunc main() { return 1 }", agent.Itinerary{}, "")
	if err := s.admit(good, s.Name()); err != nil {
		t.Fatal(err)
	}
	// Tampered rights.
	tampered := f.agent(t, "bad1", "module m\nfunc main() { return 1 }", agent.Itinerary{}, "")
	tampered.Credentials.Rights = cred.NewRightSet("anything.else")
	if err := s.admit(tampered, s.Name()); err == nil {
		t.Fatal("tampered credentials admitted")
	}
	// Name mismatch.
	renamed := f.agent(t, "bad2", "module m\nfunc main() { return 1 }", agent.Itinerary{}, "")
	renamed.Name = names.Agent("umn.edu", "else")
	if err := s.admit(renamed, s.Name()); err == nil {
		t.Fatal("name mismatch admitted")
	}
	// Corrupt bundle.
	corrupt := f.agent(t, "bad3", "module m\nfunc main() { return 1 }", agent.Itinerary{}, "")
	corrupt.Code[0].Fns[0].Code = []vm.Instr{{Op: vm.OpAdd}}
	if err := s.admit(corrupt, s.Name()); err == nil {
		t.Fatal("corrupt bundle admitted")
	}
	// Expired credentials.
	expired := f.agent(t, "bad4", "module m\nfunc main() { return 1 }", agent.Itinerary{}, "")
	expired.Credentials.Expiry = time.Now().Add(-time.Minute)
	if err := s.admit(expired, s.Name()); err == nil {
		t.Fatal("expired credentials admitted")
	}
}

func TestMailboxCapacity(t *testing.T) {
	f := newFixture(t)
	s, err := New(f.config(t, "s1", "s1:7000"))
	if err != nil {
		t.Fatal(err)
	}
	a := f.agent(t, "mb", "module m\nfunc main() { return 1 }", agent.Itinerary{}, "")
	v := &visit{agent: a, dom: domain.ID(2)}
	def := s.newMailbox(v, names.Resource("umn.edu", "mbox"), "mbox")
	send := def.Methods["send"]
	for i := 0; i < mailboxCapacity; i++ {
		if _, err := send([]vm.Value{vm.I(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := send([]vm.Value{vm.S("overflow")}); err == nil {
		t.Fatal("mailbox accepted message beyond capacity")
	}
	if n, _ := def.Methods["pending"](nil); !n.Equal(vm.I(mailboxCapacity)) {
		t.Fatalf("pending = %v", n)
	}
	if _, err := send(nil); err == nil {
		t.Fatal("send with no args accepted")
	}
}

func TestVMResourceErrors(t *testing.T) {
	f := newFixture(t)
	s, err := New(f.config(t, "s1", "s1:7000"))
	if err != nil {
		t.Fatal(err)
	}
	src := `module app
func main() { return 1 }`
	svc := `module svc
var state = 0
func bump(by) { state = state + by return state }`
	a := f.agent(t, "inst", src, agent.Itinerary{}, "")
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

	// Unknown module.
	if _, err := s.newVMResource(v, names.Resource("umn.edu", "x"), "ghost", "x"); err == nil {
		t.Fatal("unknown module accepted")
	}
	// Working resource with arity checking and persistent state.
	def, err := s.newVMResource(v, names.Resource("umn.edu", "svc"), "svc", "svc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := def.Methods["bump"]([]vm.Value{vm.I(1), vm.I(2)}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if out, err := def.Methods["bump"]([]vm.Value{vm.I(5)}); err != nil || !out.Equal(vm.I(5)) {
		t.Fatalf("%v %v", out, err)
	}
	if out, _ := def.Methods["bump"]([]vm.Value{vm.I(2)}); !out.Equal(vm.I(7)) {
		t.Fatalf("state not persistent: %v", out)
	}
	// __init__ never becomes a method.
	if _, ok := def.Methods[asl.InitFunc]; ok {
		t.Fatal("__init__ exposed as a method")
	}
	// A failing initializer rejects installation.
	badInit, err := asl.Compile("module broken\nvar x = 1 / 0\nfunc f() { return 1 }")
	if err != nil {
		t.Fatal(err)
	}
	a2 := f.agent(t, "inst2", src, agent.Itinerary{}, "")
	a2.Code = append(a2.Code, *badInit)
	ns2, err := loader.NewNamespace(mustTrusted(t), a2.Code, false)
	if err != nil {
		t.Fatal(err)
	}
	v2 := &visit{agent: a2, dom: domain.ID(3), ns: ns2}
	if _, err := s.newVMResource(v2, names.Resource("umn.edu", "b"), "broken", "b"); err == nil {
		t.Fatal("failing initializer accepted")
	}
}

func TestVMResourceIsConfined(t *testing.T) {
	// Installed code must not see server host calls — only builtins.
	f := newFixture(t)
	s, err := New(f.config(t, "s1", "s1:7000"))
	if err != nil {
		t.Fatal(err)
	}
	svc := `module sneaky
func escape() { return go("ajanta:server:umn.edu/other", "main") }`
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
	def, err := s.newVMResource(v, names.Resource("umn.edu", "sneaky"), "sneaky", "sneaky")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := def.Methods["escape"](nil); err == nil {
		t.Fatal("installed resource reached the server API")
	}
}

func TestVMResourceRunawayMetered(t *testing.T) {
	f := newFixture(t)
	s, err := New(f.config(t, "s1", "s1:7000"))
	if err != nil {
		t.Fatal(err)
	}
	svc := "module spin\nvar calls = 0\nfunc tick() { calls = calls + 1 return calls }\nfunc loop() { calls = calls + 1 while true { } }"
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
	def, err := s.newVMResource(v, names.Resource("umn.edu", "spin"), "spin", "spin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := def.Methods["loop"](nil); !errors.Is(err, vm.ErrFuelExhausted) {
		t.Fatalf("runaway installed method not stopped: %v", err)
	}
	// The budget is per call: the next call runs on a fresh one.
	if out, err := def.Methods["tick"](nil); err != nil || !out.Equal(vm.I(2)) {
		t.Fatalf("call after a runaway = %v, %v", out, err)
	}
}

func TestDispatchStopAllAlternativesFail(t *testing.T) {
	f := newFixture(t)
	cfg := f.config(t, "s1", "s1:7000")
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	it := agent.Itinerary{Stops: []agent.Stop{
		{Servers: []names.Name{s.Name()}, Entry: "main"},
		{Servers: []names.Name{
			names.Server("umn.edu", "ghost1"),
			names.Server("umn.edu", "ghost2"),
		}, Entry: "main"},
	}}
	a := f.agent(t, "stranded", "module m\nfunc main() { report(1) }", it, cfg.Address)
	ch := s.Await(a.Name)
	if err := s.LaunchLocal(a); err != nil {
		t.Fatal(err)
	}
	select {
	case back := <-ch:
		if !strings.Contains(strings.Join(back.Log, "\n"), "unreachable") {
			t.Fatalf("log = %v", back.Log)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stranded agent never came home")
	}
}

func TestHomecomingToAwaitedWaiter(t *testing.T) {
	f := newFixture(t)
	cfg := f.config(t, "s1", "s1:7000")
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	a := f.agent(t, "homer", "module m\nfunc main() { report(7) }",
		agent.Sequence("main", s.Name()), cfg.Address)
	ch := s.Await(a.Name)
	if err := s.LaunchLocal(a); err != nil {
		t.Fatal(err)
	}
	select {
	case back := <-ch:
		if len(back.Results) != 1 || !back.Results[0].Equal(vm.I(7)) {
			t.Fatalf("results = %v", back.Results)
		}
		if st, ok := s.AgentStatus(a.Name); !ok || st != domain.StatusTerminated {
			t.Fatalf("status = %v %v", st, ok)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no homecoming")
	}
}

func TestArrivalsCounter(t *testing.T) {
	f := newFixture(t)
	cfg := f.config(t, "s1", "s1:7000")
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	for i := 0; i < 3; i++ {
		a := f.agent(t, fmt.Sprintf("visitor%d", i),
			"module m\nfunc main() { return 1 }",
			agent.Sequence("main", s.Name()), cfg.Address)
		ch := s.Await(a.Name)
		if err := s.LaunchLocal(a); err != nil {
			t.Fatal(err)
		}
		<-ch
	}
	if got := s.Arrivals(); got != 3 {
		t.Fatalf("arrivals = %d", got)
	}
}

// --- fault-tolerance regression tests ---------------------------------

// A homecoming that arrives before anyone calls Await must be held, not
// dropped (the original deliver() lost such agents on the floor).
func TestHomecomingHeldWithoutWaiter(t *testing.T) {
	f := newFixture(t)
	cfg := f.config(t, "s1", "s1:7000")
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	a := f.agent(t, "early", "module m\nfunc main() { report(42) }",
		agent.Sequence("main", s.Name()), cfg.Address)
	// Launch WITHOUT a prior Await: the agent completes and comes home
	// with nobody listening.
	if err := s.LaunchLocal(a); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().HeldNow == 0 {
		if time.Now().After(deadline) {
			t.Fatal("homecoming never held")
		}
		time.Sleep(time.Millisecond)
	}
	// A late Await still receives the agent.
	select {
	case back := <-s.Await(a.Name):
		if len(back.Results) != 1 || !back.Results[0].Equal(vm.I(42)) {
			t.Fatalf("results = %v", back.Results)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("late Await did not receive the held agent")
	}
	if s.Stats().HeldNow != 0 {
		t.Fatal("held map not drained")
	}
}

// A failed homecoming transfer must park the agent in the dead-letter
// store and redeliver it when the home site comes back — not lose it.
func TestHomecomingFailureParksAndRedelivers(t *testing.T) {
	f := newFixture(t)
	ns := names.NewService()
	home := f.startServer(t, "home", "home:7000", ns)
	defer home.Stop()
	remote := f.startServer(t, "remote", "remote:7000", ns)
	defer remote.Stop()

	home.Crash() // home is down when the agent finishes

	a := f.agent(t, "parked", "module m\nfunc main() { report(9) }",
		agent.Sequence("main", remote.Name()), "home:7000")
	if err := remote.LaunchLocal(a); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for remote.Stats().ParkedNow == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("agent never parked; stats=%+v", remote.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if got := remote.ParkedAgents(); len(got) != 1 || got[0] != a.Name {
		t.Fatalf("ParkedAgents = %v", got)
	}

	ch := home.Await(a.Name)
	if err := home.Restart(); err != nil {
		t.Fatal(err)
	}
	select {
	case back := <-ch:
		if len(back.Results) != 1 || !back.Results[0].Equal(vm.I(9)) {
			t.Fatalf("results = %v", back.Results)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked agent never redelivered after restart")
	}
	// The redeliver loop records the success after the receiver has
	// already handed the agent to the waiter, so poll briefly.
	deadline = time.Now().Add(5 * time.Second)
	for {
		st := remote.Stats()
		if st.Redelivered == 1 && st.ParkedNow == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats after redelivery: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// A transient single dial failure must not fail the agent home: the
// retry policy absorbs it and the dispatch succeeds.
func TestTransientDialFailureRetrySucceeds(t *testing.T) {
	f := newFixture(t)
	ns := names.NewService()
	s1 := f.startServer(t, "s1", "s1:7000", ns)
	defer s1.Stop()
	s2 := f.startServer(t, "s2", "s2:7000", ns)
	defer s2.Stop()

	f.nw.DropNextDials("s1:7000", "s2:7000", 1)

	it := agent.Itinerary{Stops: []agent.Stop{
		{Servers: []names.Name{s1.Name()}, Entry: "main"},
		{Servers: []names.Name{s2.Name()}, Entry: "main"},
	}}
	a := f.agent(t, "bouncy", "module m\nfunc main() { report(1) }", it, "s1:7000")
	ch := s1.Await(a.Name)
	if err := s1.LaunchLocal(a); err != nil {
		t.Fatal(err)
	}
	select {
	case back := <-ch:
		if len(back.Results) != 2 {
			t.Fatalf("agent did not run both stops: %v (log %v)", back.Results, back.Log)
		}
		if strings.Contains(strings.Join(back.Log, "\n"), "unreachable") {
			t.Fatalf("transient failure failed the agent home: %v", back.Log)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("agent never came home")
	}
	if s1.Stats().Retries == 0 {
		t.Fatal("retry counter not incremented")
	}
}

// First alternative crashed (still bound in the name service, dial
// refused) => retries exhaust, second alternative succeeds.
func TestAlternativeSucceedsAfterCrash(t *testing.T) {
	f := newFixture(t)
	ns := names.NewService()
	s1 := f.startServer(t, "s1", "s1:7000", ns)
	defer s1.Stop()
	s2 := f.startServer(t, "s2", "s2:7000", ns)
	defer s2.Stop()
	s3 := f.startServer(t, "s3", "s3:7000", ns)
	defer s3.Stop()

	s2.Crash() // name binding persists; dials are refused

	it := agent.Itinerary{Stops: []agent.Stop{
		{Servers: []names.Name{s1.Name()}, Entry: "main"},
		{Servers: []names.Name{s2.Name(), s3.Name()}, Entry: "main"},
	}}
	a := f.agent(t, "alt", "module m\nfunc main() { report(1) }", it, "s1:7000")
	ch := s1.Await(a.Name)
	if err := s1.LaunchLocal(a); err != nil {
		t.Fatal(err)
	}
	select {
	case back := <-ch:
		if len(back.Results) != 2 {
			t.Fatalf("second alternative not reached: %v (log %v)", back.Results, back.Log)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("agent never came home")
	}
	if s3.Arrivals() == 0 {
		t.Fatal("s3 never hosted the agent")
	}
}

// Every alternative down => the agent fails home and its log names each
// attempted server.
func TestAllAlternativesDownLogsEachAttempt(t *testing.T) {
	f := newFixture(t)
	ns := names.NewService()
	s1 := f.startServer(t, "s1", "s1:7000", ns)
	defer s1.Stop()
	s2 := f.startServer(t, "s2", "s2:7000", ns)
	defer s2.Stop()
	s3 := f.startServer(t, "s3", "s3:7000", ns)
	defer s3.Stop()
	s2.Crash()
	s3.Crash()

	it := agent.Itinerary{Stops: []agent.Stop{
		{Servers: []names.Name{s1.Name()}, Entry: "main"},
		{Servers: []names.Name{s2.Name(), s3.Name()}, Entry: "main"},
	}}
	a := f.agent(t, "doomed", "module m\nfunc main() { report(1) }", it, "s1:7000")
	ch := s1.Await(a.Name)
	if err := s1.LaunchLocal(a); err != nil {
		t.Fatal(err)
	}
	select {
	case back := <-ch:
		logs := strings.Join(back.Log, "\n")
		if !strings.Contains(logs, "unreachable") {
			t.Fatalf("log = %v", back.Log)
		}
		for _, srv := range []*Server{s2, s3} {
			if !strings.Contains(logs, srv.Name().String()) {
				t.Fatalf("log does not name attempt on %s: %v", srv.Name(), back.Log)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("agent never failed home")
	}
	if s1.Stats().DispatchFailures == 0 {
		t.Fatal("dispatch failure not counted")
	}
}

// A failed go() detour must clear PendingEntry before the agent heads
// home, so a parked-then-redelivered agent never resumes a stale entry.
func TestPendingEntryClearedOnFailedDetour(t *testing.T) {
	f := newFixture(t)
	cfg := f.config(t, "s1", "s1:7000")
	cfg.Retry = fastRetry()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	src := `module m
func main() { go("ajanta:server:umn.edu/ghost", "resume") }
func resume() { report("must never run") }`
	a := f.agent(t, "detour", src, agent.Sequence("main", s.Name()), cfg.Address)
	ch := s.Await(a.Name)
	if err := s.LaunchLocal(a); err != nil {
		t.Fatal(err)
	}
	select {
	case back := <-ch:
		if back.PendingEntry != "" {
			t.Fatalf("stale PendingEntry %q survived the failure", back.PendingEntry)
		}
		if len(back.Results) != 0 {
			t.Fatalf("stale entry ran: %v", back.Results)
		}
		if !strings.Contains(strings.Join(back.Log, "\n"), "go ") {
			t.Fatalf("log = %v", back.Log)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("agent never came home")
	}
}

func mustTrusted(t *testing.T) *loader.TrustedSet {
	t.Helper()
	ts, err := loader.NewTrustedSet()
	if err != nil {
		t.Fatal(err)
	}
	return ts
}
