package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/cred"
	"repro/internal/domain"
	"repro/internal/names"
	"repro/internal/policy"
	"repro/internal/vm"
)

const waitTime = 10 * time.Second

// openRules grants every principal full access to the given resources.
func openRules(paths ...string) []policy.Rule {
	rules := make([]policy.Rule, len(paths))
	for i, p := range paths {
		rules[i] = policy.Rule{AnyPrincipal: true, Resource: p, Methods: []string{"*"}}
	}
	return rules
}

func mustPlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := NewPlatform("umn.edu")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.StopAll)
	return p
}

// TestFigure1ServerStructure: a server exposes every Fig. 1 component
// and hosts a trivial agent end to end.
func TestFigure1ServerStructure(t *testing.T) {
	p := mustPlatform(t)
	home, err := p.StartServer("home", "home:7000", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	desc := home.Describe()
	for _, want := range []string{"agent environment", "resource registry",
		"domain database", "security manager", "agent transfer"} {
		if !strings.Contains(desc, want) {
			t.Errorf("Describe missing %q:\n%s", want, desc)
		}
	}
	owner, err := p.NewOwner("alice")
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.BuildAgent(AgentSpec{
		Owner: owner,
		Name:  "hello",
		Source: `module hello
func main() {
  report("hello from " + server_name())
}`,
		Itinerary: agent.Sequence("main", home.Name()),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.LaunchAndWait(home, a, waitTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 1 || !strings.Contains(back.Results[0].Str, "home") {
		t.Fatalf("results = %v, log = %v", back.Results, back.Log)
	}
}

// TestFigure6BindingProtocol: the six-step resource binding — register,
// request, lookup, getProxy upcall, proxy return, mediated invocation.
func TestFigure6BindingProtocol(t *testing.T) {
	p := mustPlatform(t)
	srv, err := p.StartServer("s1", "s1:7000", ServerConfig{Rules: openRules("counter")})
	if err != nil {
		t.Fatal(err)
	}
	if err := InstallResource(srv, CounterResource(names.Resource("umn.edu", "counter"), "counter")); err != nil {
		t.Fatal(err) // step 1
	}
	home, err := p.StartServer("home", "home:7000", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := p.NewOwner("alice")
	a, err := p.BuildAgent(AgentSpec{
		Owner: owner,
		Name:  "binder",
		Source: `module binder
func main() {
  var c = get_resource("ajanta:resource:umn.edu/counter")  # steps 2-5
  invoke(c, "add", 5)                                      # step 6
  invoke(c, "add", 2)
  report(invoke(c, "get"))
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
	if len(back.Results) != 1 || !back.Results[0].Equal(vm.I(7)) {
		t.Fatalf("results = %v, log = %v", back.Results, back.Log)
	}
}

// TestMultiHopTour: the canonical shopping tour — visit three servers,
// aggregate state across hops, return with the best offer.
func TestMultiHopTour(t *testing.T) {
	p := mustPlatform(t)
	prices := map[string]int64{"s1": 120, "s2": 95, "s3": 110}
	var servers []names.Name
	for short, price := range map[string]int64{"s1": prices["s1"], "s2": prices["s2"], "s3": prices["s3"]} {
		srv, err := p.StartServer(short, short+":7000", ServerConfig{Rules: openRules("quotes")})
		if err != nil {
			t.Fatal(err)
		}
		q := QuoteResource(names.Resource("umn.edu", "quotes-"+short), "quotes",
			map[string]int64{"widget": price})
		if err := InstallResource(srv, q); err != nil {
			t.Fatal(err)
		}
	}
	// Deterministic visiting order.
	for _, short := range []string{"s1", "s2", "s3"} {
		servers = append(servers, names.Server("umn.edu", short))
	}
	home, err := p.StartServer("home", "home:7000", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := p.NewOwner("alice")
	a, err := p.BuildAgent(AgentSpec{
		Owner: owner,
		Name:  "shopper",
		Source: `module shopper
var best = 999999
var where = ""
func visit() {
  # Each server registers its quote service under a name derived from
  # its own short name; discover it via the server name.
  var parts = split(server_name(), "/")
  var short = parts[len(parts) - 1]
  var q = get_resource("ajanta:resource:umn.edu/quotes-" + short)
  var price = invoke(q, "quote", "widget")
  log("quote at " + short + ": " + str(price))
  if price != nil && price < best {
    best = price
    where = short
  }
}`,
		Itinerary: agent.Sequence("visit", servers...),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.LaunchAndWait(home, a, waitTime)
	if err != nil {
		t.Fatal(err)
	}
	if !back.State["best"].Equal(vm.I(95)) || !back.State["where"].Equal(vm.S("s2")) {
		t.Fatalf("best = %v at %v; log = %v", back.State["best"], back.State["where"], back.Log)
	}
	if back.Hops < 3 {
		t.Fatalf("hops = %d", back.Hops)
	}
}

// TestGoPrimitive: dynamic routing via the go host call instead of a
// pre-planned itinerary.
func TestGoPrimitive(t *testing.T) {
	p := mustPlatform(t)
	if _, err := p.StartServer("s1", "s1:7000", ServerConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.StartServer("s2", "s2:7000", ServerConfig{}); err != nil {
		t.Fatal(err)
	}
	home, err := p.StartServer("home", "home:7000", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := p.NewOwner("alice")
	a, err := p.BuildAgent(AgentSpec{
		Owner: owner,
		Name:  "roamer",
		Source: `module roamer
var trail = []
func main() {
  trail = append(trail, server_name())
  go("ajanta:server:umn.edu/s2", "second")
  report("unreachable")  # never runs: go does not return
}
func second() {
  trail = append(trail, server_name())
  report(trail)
}`,
		Itinerary: agent.Sequence("main", names.Server("umn.edu", "s1")),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.LaunchAndWait(home, a, waitTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 1 {
		t.Fatalf("results = %v, log = %v", back.Results, back.Log)
	}
	trail := back.Results[0]
	if len(trail.List) != 2 ||
		!strings.Contains(trail.List[0].Str, "s1") ||
		!strings.Contains(trail.List[1].Str, "s2") {
		t.Fatalf("trail = %v", trail)
	}
}

// TestC9_DynamicInstall: an agent installs a resource implemented by
// its own code and terminates; a later agent uses the resource.
func TestC9_DynamicInstall(t *testing.T) {
	p := mustPlatform(t)
	srv, err := p.StartServer("s1", "s1:7000", ServerConfig{InstalledResourcePolicy: true})
	if err != nil {
		t.Fatal(err)
	}
	home, err := p.StartServer("home", "home:7000", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := p.NewOwner("provider")

	installer, err := p.BuildAgent(AgentSpec{
		Owner: owner,
		Name:  "installer",
		Source: `module installer
func main() {
  install_resource("ajanta:resource:umn.edu/dict", "dictsvc", "dict")
  report("installed")
}`,
		ExtraSources: []string{`module dictsvc
var table = {"ajanta": "a Java-based mobile agent system"}
func define(word) { return table[word] }
func add(word, meaning) { table[word] = meaning return true }`},
		Itinerary: agent.Sequence("main", srv.Name()),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LaunchAndWait(home, installer, waitTime); err != nil {
		t.Fatal(err)
	}
	if srv.Registry().Len() != 1 {
		t.Fatalf("registry len = %d", srv.Registry().Len())
	}

	client, _ := p.NewOwner("client")
	user, err := p.BuildAgent(AgentSpec{
		Owner: client,
		Name:  "lookup",
		Source: `module lookup
func main() {
  var d = get_resource("ajanta:resource:umn.edu/dict")
  invoke(d, "add", "proxy", "a protected reference")
  report(invoke(d, "define", "ajanta"))
  report(invoke(d, "define", "proxy"))
}`,
		Itinerary: agent.Sequence("main", srv.Name()),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.LaunchAndWait(home, user, waitTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 2 ||
		!back.Results[0].Equal(vm.S("a Java-based mobile agent system")) ||
		!back.Results[1].Equal(vm.S("a protected reference")) {
		t.Fatalf("results = %v, log = %v", back.Results, back.Log)
	}
}

// TestMailboxCommunication: co-located agents communicate through the
// proxy-protected mailbox resource.
func TestMailboxCommunication(t *testing.T) {
	p := mustPlatform(t)
	srv, err := p.StartServer("s1", "s1:7000", ServerConfig{Fuel: 200_000_000})
	if err != nil {
		t.Fatal(err)
	}
	home, err := p.StartServer("home", "home:7000", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := p.NewOwner("alice")
	bob, _ := p.NewOwner("bob")

	receiver, err := p.BuildAgent(AgentSpec{
		Owner: alice,
		Name:  "receiver",
		Source: `module receiver
func main() {
  make_mailbox("ajanta:resource:umn.edu/alice-mbox", "alice-mbox")
  var msg = nil
  while msg == nil {
    msg = recv()
  }
  report(msg)
}`,
		Itinerary: agent.Sequence("main", srv.Name()),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	recvCh, err := p.Launch(home, receiver)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the mailbox to appear before launching the sender.
	deadline := time.Now().Add(waitTime)
	for srv.Registry().Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("mailbox never registered")
		}
		time.Sleep(time.Millisecond)
	}

	sender, err := p.BuildAgent(AgentSpec{
		Owner: bob,
		Name:  "sender",
		Source: `module sender
func main() {
  var mb = get_resource("ajanta:resource:umn.edu/alice-mbox")
  invoke(mb, "send", "greetings from bob")
  report("sent")
}`,
		Itinerary: agent.Sequence("main", srv.Name()),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LaunchAndWait(home, sender, waitTime); err != nil {
		t.Fatal(err)
	}

	select {
	case back := <-recvCh:
		if len(back.Results) != 1 || !back.Results[0].Equal(vm.S("greetings from bob")) {
			t.Fatalf("results = %v, log = %v", back.Results, back.Log)
		}
	case <-time.After(waitTime):
		t.Fatal("receiver never returned")
	}
}

// TestMailboxSenderCannotDrain: policy lets strangers send but not read
// another agent's mail.
func TestMailboxSenderCannotDrain(t *testing.T) {
	p := mustPlatform(t)
	srv, err := p.StartServer("s1", "s1:7000", ServerConfig{Fuel: 200_000_000})
	if err != nil {
		t.Fatal(err)
	}
	home, err := p.StartServer("home", "home:7000", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := p.NewOwner("alice")
	mallory, _ := p.NewOwner("mallory")

	receiver, err := p.BuildAgent(AgentSpec{
		Owner: alice,
		Name:  "receiver2",
		Source: `module receiver
func main() {
  make_mailbox("ajanta:resource:umn.edu/mbox2", "mbox2")
  var msg = nil
  while msg == nil {
    msg = recv()
  }
  report(msg)
}`,
		Itinerary: agent.Sequence("main", srv.Name()),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	recvCh, err := p.Launch(home, receiver)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(waitTime)
	for srv.Registry().Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("mailbox never registered")
		}
		time.Sleep(time.Millisecond)
	}

	snoop, err := p.BuildAgent(AgentSpec{
		Owner: mallory,
		Name:  "snoop",
		Source: `module snoop
func main() {
  var mb = get_resource("ajanta:resource:umn.edu/mbox2")
  var allowed = resource_methods(mb)
  report(allowed)
  invoke(mb, "send", "bait")
}`,
		Itinerary: agent.Sequence("main", srv.Name()),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.LaunchAndWait(home, snoop, waitTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 1 {
		t.Fatalf("results = %v, log = %v", back.Results, back.Log)
	}
	allowed := back.Results[0]
	if len(allowed.List) != 1 || !allowed.List[0].Equal(vm.S("send")) {
		t.Fatalf("mallory's enabled methods = %v, want [send]", allowed)
	}
	<-recvCh // unblock the receiver (it got "bait")
}

// TestC7_QuotaDoS: a runaway agent is stopped by the instruction meter.
func TestC7_QuotaDoS(t *testing.T) {
	p := mustPlatform(t)
	srv, err := p.StartServer("s1", "s1:7000", ServerConfig{Fuel: 50_000})
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
		Name:  "spinner",
		Source: `module spinner
func main() {
  while true { }
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
	joined := strings.Join(back.Log, "\n")
	if !strings.Contains(joined, "quota exhausted") {
		t.Fatalf("log = %v", back.Log)
	}
	if st, ok := srv.AgentStatus(a.Name); !ok || st != domain.StatusFailed {
		t.Fatalf("status = %v, %v", st, ok)
	}
}

// TestKillAgent: the owner aborts a long-running agent via the server's
// control interface; foreign principals cannot.
func TestKillAgent(t *testing.T) {
	p := mustPlatform(t)
	srv, err := p.StartServer("s1", "s1:7000", ServerConfig{Fuel: 1 << 40}) // never runs out before the kill
	if err != nil {
		t.Fatal(err)
	}
	home, err := p.StartServer("home", "home:7000", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := p.NewOwner("alice")
	mallory, _ := p.NewOwner("mallory")
	a, err := p.BuildAgent(AgentSpec{
		Owner: owner,
		Name:  "longrunner",
		Source: `module longrunner
func main() { while true { } }`,
		Itinerary: agent.Sequence("main", srv.Name()),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := p.Launch(home, a)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is hosted at s1.
	deadline := time.Now().Add(waitTime)
	for {
		if st, ok := srv.AgentStatus(a.Name); ok && st == domain.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("agent never started at s1")
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Kill(mallory.Name, a.Name); err == nil {
		t.Fatal("foreign principal killed the agent")
	}
	if err := srv.Kill(owner.Name, a.Name); err != nil {
		t.Fatal(err)
	}
	select {
	case back := <-ch:
		if !strings.Contains(strings.Join(back.Log, "\n"), "killed") {
			t.Fatalf("log = %v", back.Log)
		}
	case <-time.After(waitTime):
		t.Fatal("killed agent never came home")
	}
	if st, _ := srv.AgentStatus(a.Name); st != domain.StatusKilled {
		t.Fatalf("status = %v", st)
	}
}

// TestOwnerRestrictedAgent: the owner delegates a subset of rights; the
// proxy the agent receives reflects the restriction.
func TestOwnerRestrictedAgent(t *testing.T) {
	p := mustPlatform(t)
	srv, err := p.StartServer("s1", "s1:7000", ServerConfig{Rules: openRules("counter")})
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
		Owner:  owner,
		Name:   "readonly",
		Rights: cred.NewRightSet("counter.get"),
		Source: `module readonly
func main() {
  var c = get_resource("ajanta:resource:umn.edu/counter")
  report(resource_methods(c))
  report(invoke(c, "get"))
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
	if len(back.Results) != 2 {
		t.Fatalf("results = %v, log = %v", back.Results, back.Log)
	}
	methods := back.Results[0]
	if len(methods.List) != 1 || !methods.List[0].Equal(vm.S("get")) {
		t.Fatalf("enabled = %v", methods)
	}
}

// TestItineraryAlternatives: the first alternative of a stop is
// unreachable; the agent proceeds via the fallback server.
func TestItineraryAlternatives(t *testing.T) {
	p := mustPlatform(t)
	backup, err := p.StartServer("backup", "backup:7000", ServerConfig{})
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
		Name:  "fallback",
		Source: `module fallback
func main() { report(server_name()) }`,
		Itinerary: agent.Itinerary{Stops: []agent.Stop{{
			Servers: []names.Name{names.Server("umn.edu", "ghost"), backup.Name()},
			Entry:   "main",
		}}},
		Home: home,
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.LaunchAndWait(home, a, waitTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 1 || !strings.Contains(back.Results[0].Str, "backup") {
		t.Fatalf("results = %v, log = %v", back.Results, back.Log)
	}
}

// TestAdmitRejectsTamperedAgent: an agent whose rights were widened en
// route is rejected at admission.
func TestAdmitRejectsTamperedAgent(t *testing.T) {
	p := mustPlatform(t)
	home, err := p.StartServer("home", "home:7000", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := p.NewOwner("alice")
	a, err := p.BuildAgent(AgentSpec{
		Owner:  owner,
		Name:   "tampered",
		Rights: cred.NewRightSet("counter.get"),
		Source: `module t
func main() { report(1) }`,
		Itinerary: agent.Sequence("main", home.Name()),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Credentials.Rights = cred.NewRightSet(cred.All) // widen rights
	if err := home.LaunchLocal(a); err == nil {
		t.Fatal("tampered agent admitted")
	}
	b, err := p.BuildAgent(AgentSpec{
		Owner: owner,
		Name:  "renamed",
		Source: `module t
func main() { report(1) }`,
		Itinerary: agent.Sequence("main", home.Name()),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Name = names.Agent("umn.edu", "impostor") // identity mismatch
	if err := home.LaunchLocal(b); err == nil {
		t.Fatal("agent with mismatched identity admitted")
	}
}

// TestAccessDeniedSurfacesInLog: an agent requesting a resource its
// rights do not cover fails visibly, not silently.
func TestAccessDeniedSurfacesInLog(t *testing.T) {
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
	owner, _ := p.NewOwner("alice")
	a, err := p.BuildAgent(AgentSpec{
		Owner: owner,
		Name:  "denied",
		Source: `module denied
func main() {
  var c = get_resource("ajanta:resource:umn.edu/counter")
  report(invoke(c, "get"))
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
	if len(back.Results) != 0 {
		t.Fatalf("denied agent produced results: %v", back.Results)
	}
	if !strings.Contains(strings.Join(back.Log, "\n"), "access denied") {
		t.Fatalf("log = %v", back.Log)
	}
}

// TestStateMigratesCodeDoesNotRerunInit: module initializers run once;
// mutated globals travel.
func TestStateMigratesCodeDoesNotRerunInit(t *testing.T) {
	p := mustPlatform(t)
	if _, err := p.StartServer("s1", "s1:7000", ServerConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.StartServer("s2", "s2:7000", ServerConfig{}); err != nil {
		t.Fatal(err)
	}
	home, err := p.StartServer("home", "home:7000", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := p.NewOwner("alice")
	a, err := p.BuildAgent(AgentSpec{
		Owner: owner,
		Name:  "statecarrier",
		Source: `module sc
var inits = 0   # would reset at each hop if __init__ re-ran
var visits = 0
func visit() {
  visits = visits + 1
}`,
		Itinerary: agent.Sequence("visit",
			names.Server("umn.edu", "s1"), names.Server("umn.edu", "s2")),
		Home: home,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-set inits through __init__ semantics: bump it in init by
	// compiling a variant is overkill — instead verify Initialized and
	// that visits accumulated across both servers.
	back, err := p.LaunchAndWait(home, a, waitTime)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Initialized {
		t.Fatal("agent lost initialization flag")
	}
	if !back.State["visits"].Equal(vm.I(2)) {
		t.Fatalf("visits = %v, log = %v", back.State["visits"], back.Log)
	}
}
