package server

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/domain"
	"repro/internal/keys"
	"repro/internal/loader"
	"repro/internal/names"
	"repro/internal/registry"
	"repro/internal/resource"
	"repro/internal/vm"
)

// stranger is a second owner, unrelated to the fixture's.
func (f *fixture) stranger(t *testing.T) keys.Identity {
	t.Helper()
	id, err := keys.NewIdentity(f.ca, names.Principal("umn.edu", "mallory"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// hostedVisit builds a's visit on s the way hosting does: a protection
// domain in the database, a namespace and the host API.
func hostedVisit(t *testing.T, s *Server, a *agent.Agent) *visit {
	t.Helper()
	dom, err := s.db.Admit(domain.ServerID, &a.Credentials)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := loader.NewNamespace(mustTrusted(t), a.Code, false)
	if err != nil {
		t.Fatal(err)
	}
	return s.newVisit(a, dom, ns, vm.DefaultFuel)
}

// enabled lists the methods a proxy enables, sorted.
func enabled(p *resource.Proxy) []string {
	var out []string
	for _, m := range p.MethodNames() {
		if p.IsEnabled(m) {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}

// TestMailboxRulesPublishWithEntry: make_mailbox leaves the server
// policy alone — the same epoch, which every rule change advances — and its rules ride in the
// registry entry, so a stranger that binds on the very first registry
// snapshot holding the mailbox is already granted send and nothing
// else. An observer spins on snapshots while the mailbox is made; the
// snapshot it binds on is the one registration published.
func TestMailboxRulesPublishWithEntry(t *testing.T) {
	f := newFixture(t)
	s, err := New(f.config(t, "s1", "s1:7000"))
	if err != nil {
		t.Fatal(err)
	}
	src := "module m\nfunc main() { return 1 }"
	owner := hostedVisit(t, s, f.agent(t, "owner", src, agent.Itinerary{}, ""))
	peer := hostedVisit(t, s, f.agentOf(t, f.stranger(t), "peer", src, agent.Itinerary{}, ""))
	peerCreds, err := s.db.CredentialsOf(peer.dom)
	if err != nil {
		t.Fatal(err)
	}
	rn := names.Resource("umn.edu", "race-mbox")
	policyEpoch, regEpoch := s.Policy().Epoch(), s.reg.Epoch()

	type sighting struct {
		epoch   uint64
		methods []string
		err     error
	}
	seen, stop := make(chan sighting, 1), make(chan struct{})
	defer close(stop)
	go func() {
		for {
			snap := s.reg.Snapshot()
			e, err := snap.Lookup(rn)
			if err != nil {
				select {
				case <-stop: // make_mailbox failed; the test is over
					return
				default:
					continue
				}
			}
			p, err := e.AP.GetProxy(resource.Request{Caller: peer.dom, Creds: peerCreds, Policy: s.Policy()})
			if err != nil {
				seen <- sighting{epoch: snap.Epoch(), err: err}
				return
			}
			seen <- sighting{epoch: snap.Epoch(), methods: enabled(p)}
			return
		}
	}()
	if _, err := owner.env.Host["make_mailbox"]([]vm.Value{vm.S(rn.String()), vm.S("race-mbox")}); err != nil {
		t.Fatal(err)
	}
	first := <-seen
	if first.err != nil {
		t.Fatalf("stranger denied on the first snapshot holding the mailbox: %v", first.err)
	}
	if first.epoch != regEpoch+1 {
		t.Fatalf("observer bound at registry epoch %d, want the registration's %d", first.epoch, regEpoch+1)
	}
	if !reflect.DeepEqual(first.methods, []string{"send"}) {
		t.Fatalf("stranger granted %v on the first snapshot, want [send]", first.methods)
	}
	if got := s.Policy().Epoch(); got != policyEpoch {
		t.Fatalf("policy epoch %d after make_mailbox, want %d", got, policyEpoch)
	}

	// The server's binding path agrees: the owner has everything, the
	// stranger may only send.
	for _, c := range []struct {
		v    *visit
		want []string
	}{{owner, []string{"pending", "send"}}, {peer, []string{"send"}}} {
		br, err := s.bindResource(c.v, rn)
		if err != nil {
			t.Fatal(err)
		}
		if got := enabled(br.proxy); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s bound %v, want %v", c.v.agent.Name, got, c.want)
		}
	}
}

// TestAdmissionSeesMailboxRules: on an AdmissionEnforce server with a
// default-deny policy, a peer whose manifest statically names a live
// mailbox is admitted by the mailbox's own send rule, and its message
// lands. The global policy alone grants the peer nothing on the
// mailbox, so an admission check blind to the entry's rules would turn
// it away.
func TestAdmissionSeesMailboxRules(t *testing.T) {
	f := newFixture(t)
	s := f.startNamed(t, names.Server("umn.edu", "s1"), "s1:7000", names.NewService(), func(c *Config) {
		c.Admission = AdmissionEnforce
		c.Fuel = 200_000_000 // the owner busy-waits on its mailbox
	})
	defer s.Stop()
	here := agent.Itinerary{Stops: []agent.Stop{{Servers: []names.Name{s.Name()}, Entry: "main"}}}

	owner := f.agent(t, "owner", `module owner
func main() {
  make_mailbox("ajanta:resource:umn.edu/adm-mbox", "adm-mbox")
  var msg = nil
  while msg == nil { msg = recv() }
  report(msg)
}`, here, "s1:7000")
	ownerCh := s.Await(owner.Name)
	if err := s.LaunchLocal(owner); err != nil {
		t.Fatal(err)
	}
	rn := names.Resource("umn.edu", "adm-mbox")
	waitUntil(t, "the mailbox to register", func() bool { _, err := s.reg.Lookup(rn); return err == nil })
	e, _ := s.reg.Lookup(rn)
	def := e.AP.(*resource.Def)

	peer := f.agentOf(t, f.stranger(t), "peer", `module peer
func main() {
  var mb = get_resource("ajanta:resource:umn.edu/adm-mbox")
  invoke(mb, "send", "admitted")
}`, here, "s1:7000")
	if g := s.Policy().Decide(&peer.Credentials, def.Path, def.MethodNames()); !g.Empty() {
		t.Fatalf("the global policy alone grants the peer %v; the test needs it to grant nothing", g.MethodList())
	}
	peerCh := s.Await(peer.Name)
	if err := s.LaunchLocal(peer); err != nil {
		t.Fatalf("peer naming a live mailbox rejected: %v", err)
	}
	if back := awaitAgent(t, peerCh); len(back.Log) != 0 {
		t.Fatalf("peer log = %v", back.Log)
	}
	back := awaitAgent(t, ownerCh)
	if len(back.Results) != 1 || !back.Results[0].Equal(vm.S("admitted")) {
		t.Fatalf("owner results = %v, log = %v", back.Results, back.Log)
	}
	if n := s.Stats().AdmissionRejects; n != 0 {
		t.Fatalf("AdmissionRejects = %d, want 0", n)
	}
}

// TestMailboxDiesWithVisit: a peer binds a mailbox, then its owner
// departs. The peer's next send through the proxy it still holds fails,
// the name no longer binds here, and this server's location is
// withdrawn from the name while another server's replica of it stays.
// Each step waits for a homecoming or a message, never for time.
func TestMailboxDiesWithVisit(t *testing.T) {
	f := newFixture(t)
	ns := names.NewService()
	fuel := func(c *Config) { c.Fuel = 200_000_000 } // agents busy-wait on mailboxes
	s := f.startNamed(t, names.Server("umn.edu", "s1"), "s1:7000", ns, fuel)
	defer s.Stop()
	here := agent.Itinerary{Stops: []agent.Stop{{Servers: []names.Name{s.Name()}, Entry: "main"}}}
	rn := names.Resource("umn.edu", "owner-mbox")
	replica := names.Location{Address: "s2:7000", ServerName: names.Server("umn.edu", "s2")}
	if err := ns.BindReplica(rn, replica); err != nil {
		t.Fatal(err)
	}

	owner := f.agent(t, "owner", `module owner
func main() {
  make_mailbox("ajanta:resource:umn.edu/owner-mbox", "owner-mbox")
  var msg = nil
  while msg == nil { msg = recv() }
  report(msg)
}`, here, "s1:7000")
	ownerCh := s.Await(owner.Name)
	if err := s.LaunchLocal(owner); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the owner's mailbox to register", func() bool { _, err := s.reg.Lookup(rn); return err == nil })
	if b, _ := ns.Resolve(rn); len(b.Locations) != 2 {
		t.Fatalf("live mailbox locations = %v, want the replica and s1", b.Locations)
	}

	// The peer opens its own mailbox before it sends, so by the time
	// the owner has the message the peer can be told to go on.
	peer := f.agentOf(t, f.stranger(t), "peer", `module peer
func main() {
  make_mailbox("ajanta:resource:umn.edu/peer-mbox", "peer-mbox")
  var mb = get_resource("ajanta:resource:umn.edu/owner-mbox")
  invoke(mb, "send", "hello")
  var cue = nil
  while cue == nil { cue = recv() }
  report("resumed")
  invoke(mb, "send", "too late")
  report("late send landed")
}`, here, "s1:7000")
	peerCh := s.Await(peer.Name)
	if err := s.LaunchLocal(peer); err != nil {
		t.Fatal(err)
	}
	back := awaitAgent(t, ownerCh) // delivered only after the visit finished
	if len(back.Results) != 1 || !back.Results[0].Equal(vm.S("hello")) {
		t.Fatalf("owner results = %v, log = %v", back.Results, back.Log)
	}

	if _, err := s.reg.Lookup(rn); !errors.Is(err, registry.ErrNotFound) {
		t.Fatalf("departed owner's mailbox still registered: %v", err)
	}
	b, err := ns.Resolve(rn)
	if err != nil {
		t.Fatalf("the other server's replica went with the mailbox: %v", err)
	}
	if !reflect.DeepEqual(b.Locations, []names.Location{replica}) {
		t.Fatalf("locations after departure = %v, want only %v", b.Locations, replica)
	}

	pe, err := s.reg.Lookup(names.Resource("umn.edu", "peer-mbox"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pe.AP.(*resource.Def).Methods["send"]([]vm.Value{vm.S("go on")}); err != nil {
		t.Fatal(err)
	}
	pback := awaitAgent(t, peerCh)
	if len(pback.Results) != 1 || !pback.Results[0].Equal(vm.S("resumed")) {
		t.Fatalf("peer results = %v, log = %v", pback.Results, pback.Log)
	}
	if log := strings.Join(pback.Log, "\n"); !strings.Contains(log, "mailbox") || !strings.Contains(log, "closed") {
		t.Fatalf("peer's late send did not fail on a closed mailbox: log %v", pback.Log)
	}

	probe := f.agent(t, "probe", `module probe
func main() { var mb = get_resource("ajanta:resource:umn.edu/owner-mbox") }`, here, "s1:7000")
	probeCh := s.Await(probe.Name)
	if err := s.LaunchLocal(probe); err != nil {
		t.Fatal(err)
	}
	if log := strings.Join(awaitAgent(t, probeCh).Log, "\n"); !strings.Contains(log, registry.ErrNotFound.Error()) {
		t.Fatalf("get_resource on a departed mailbox: log %q, want %q", log, registry.ErrNotFound)
	}
	if n := s.reg.Len(); n != 0 {
		t.Fatalf("registry holds %d entries after every agent left, want 0", n)
	}
}

// TestMailboxUnpublishedLeavesNoEntry: a mailbox the directory refuses
// (a federation with no authority for its name) fails make_mailbox and
// is taken back out of the registry, so it cannot outlive the visit
// that its finish would not know to clean up.
func TestMailboxUnpublishedLeavesNoEntry(t *testing.T) {
	f := newFixture(t)
	cfg := f.config(t, "s1", "s1:7000")
	cfg.NameService = names.NewFederation()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := hostedVisit(t, s, f.agent(t, "owner", "module m\nfunc main() { return 1 }", agent.Itinerary{}, ""))
	if _, err := v.env.Host["make_mailbox"]([]vm.Value{vm.S("ajanta:resource:umn.edu/mbox"), vm.S("mbox")}); !errors.Is(err, names.ErrNoAuthority) {
		t.Fatalf("make_mailbox under an unknown authority: %v, want ErrNoAuthority", err)
	}
	if n := s.reg.Len(); n != 0 || len(v.mailboxes) != 0 {
		t.Fatalf("registry holds %d entries, visit records %v; want none", n, v.mailboxes)
	}
}

// TestResourceMethodsSorted: resource_methods lists a proxy's methods in
// one order, sorted, on every call.
func TestResourceMethodsSorted(t *testing.T) {
	f := newFixture(t)
	s, err := New(f.config(t, "s1", "s1:7000"))
	if err != nil {
		t.Fatal(err)
	}
	v := hostedVisit(t, s, f.agent(t, "lister", "module m\nfunc main() { return 1 }", agent.Itinerary{}, ""))
	def := echoResource()
	for _, m := range []string{"h", "c", "f", "a", "g", "b", "e", "d"} {
		def.Methods[m] = def.Methods["sum"]
	}
	if err := s.InstallResource(registry.Entry{Name: def.Name, Resource: def, AP: def, OwnerDomain: domain.ServerID}); err != nil {
		t.Fatal(err)
	}
	s.Policy().AddRule(policyRuleForInstalled(def.Path))
	h, err := v.env.Host["get_resource"]([]vm.Value{vm.S(def.Name.String())})
	if err != nil {
		t.Fatal(err)
	}
	want := vm.L(vm.S("a"), vm.S("b"), vm.S("c"), vm.S("d"), vm.S("e"),
		vm.S("f"), vm.S("g"), vm.S("h"), vm.S("pair"), vm.S("sum"))
	for i := 0; i < 50; i++ {
		got, err := v.env.Host["resource_methods"]([]vm.Value{h})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("call %d: resource_methods = %v, want %v", i, got, want)
		}
	}
}

// TestMailboxNameMustBeOwnResource: a mailbox's name must be a resource
// in its owner's authority. Departure withdraws this server's location
// from the name, so a mailbox named after the server, a co-hosted
// agent or another domain's resource would unbind it; each is refused
// without registering or binding anything, and once the visit that
// tried it ends the server still resolves here.
func TestMailboxNameMustBeOwnResource(t *testing.T) {
	f := newFixture(t)
	ns := names.NewService()
	s := f.startNamed(t, names.Server("umn.edu", "s1"), "s1:7000", ns)
	defer s.Stop()
	src := "module m\nfunc main() { return 1 }"
	cohost := hostedVisit(t, s, f.agent(t, "cohost", src, agent.Itinerary{}, ""))
	if err := ns.Bind(cohost.agent.Name, names.Location{Address: s.cfg.Address, ServerName: s.Name()}); err != nil {
		t.Fatal(err)
	}
	foreign := names.Resource("acme.org", "db")
	if err := ns.Bind(foreign, names.Location{Address: "db:1"}); err != nil {
		t.Fatal(err)
	}
	v := hostedVisit(t, s, f.agent(t, "claimer", src, agent.Itinerary{}, ""))
	for _, rn := range []names.Name{s.Name(), cohost.agent.Name, foreign, names.Agent("umn.edu", "nobody")} {
		before, _ := ns.Resolve(rn)
		if _, err := v.env.Host["make_mailbox"]([]vm.Value{vm.S(rn.String()), vm.S("claim")}); !errors.Is(err, ErrBadArg) {
			t.Fatalf("make_mailbox(%s): %v, want ErrBadArg", rn, err)
		}
		if after, _ := ns.Resolve(rn); !reflect.DeepEqual(after.Locations, before.Locations) {
			t.Fatalf("refused make_mailbox(%s) moved its locations %v -> %v", rn, before.Locations, after.Locations)
		}
	}
	if n := s.reg.Len(); n != 0 || len(v.mailboxes) != 0 {
		t.Fatalf("registry holds %d entries, visit records %v; want none", n, v.mailboxes)
	}

	here := agent.Itinerary{Stops: []agent.Stop{{Servers: []names.Name{s.Name()}, Entry: "main"}}}
	a := f.agent(t, "squatter", `module squatter
func main() { make_mailbox("`+s.Name().String()+`", "squat") }`, here, "s1:7000")
	ch := s.Await(a.Name)
	if err := s.LaunchLocal(a); err != nil {
		t.Fatal(err)
	}
	if log := strings.Join(awaitAgent(t, ch).Log, "\n"); !strings.Contains(log, ErrBadArg.Error()) {
		t.Fatalf("make_mailbox under the server's name: log %q, want %q", log, ErrBadArg)
	}
	b, err := ns.Resolve(s.Name())
	if err != nil {
		t.Fatalf("server no longer resolves after the visit ended: %v", err)
	}
	if b.Primary().Address != "s1:7000" {
		t.Fatalf("server resolves to %v, want s1:7000", b.Locations)
	}
}

// hookedDirectory runs onWithdraw before each UnbindReplica.
type hookedDirectory struct {
	*names.Service
	onWithdraw func(names.Name)
}

func (d *hookedDirectory) UnbindReplica(n names.Name, address string) {
	d.onWithdraw(n)
	d.Service.UnbindReplica(n, address)
}

// TestMailboxNameReusableAfterVisit: a departing visit withdraws its
// mailbox's location while the entry still holds the name, so no
// successor can register the name in between and have its fresh bind
// withdrawn; once the visit has ended the successor's mailbox under the
// same name registers and resolves here. The directory hook makes the
// in-between attempt at exactly the withdrawal.
func TestMailboxNameReusableAfterVisit(t *testing.T) {
	f := newFixture(t)
	dir := &hookedDirectory{Service: names.NewService()}
	s := f.startNamed(t, names.Server("umn.edu", "s1"), "s1:7000", dir)
	defer s.Stop()
	rn := names.Resource("umn.edu", "reuse-mbox")
	successor := hostedVisit(t, s, f.agentOf(t, f.stranger(t), "successor", "module m\nfunc main() { return 1 }", agent.Itinerary{}, ""))
	var during error
	dir.onWithdraw = func(n names.Name) {
		if n == rn {
			_, during = successor.env.Host["make_mailbox"]([]vm.Value{vm.S(rn.String()), vm.S("reuse-mbox-2")})
		}
	}

	here := agent.Itinerary{Stops: []agent.Stop{{Servers: []names.Name{s.Name()}, Entry: "main"}}}
	owner := f.agent(t, "owner", `module owner
func main() { make_mailbox("`+rn.String()+`", "reuse-mbox") }`, here, "s1:7000")
	ch := s.Await(owner.Name)
	if err := s.LaunchLocal(owner); err != nil {
		t.Fatal(err)
	}
	if back := awaitAgent(t, ch); len(back.Log) != 0 {
		t.Fatalf("owner log = %v", back.Log)
	}
	if !errors.Is(during, registry.ErrDuplicate) {
		t.Fatalf("successor's make_mailbox during the withdrawal: %v, want ErrDuplicate", during)
	}
	if _, err := successor.env.Host["make_mailbox"]([]vm.Value{vm.S(rn.String()), vm.S("reuse-mbox-2")}); err != nil {
		t.Fatalf("successor's make_mailbox after the visit ended: %v", err)
	}
	b, err := dir.Resolve(rn)
	if err != nil || b.Primary().Address != "s1:7000" {
		t.Fatalf("successor's mailbox resolves to %v (%v), want s1:7000", b.Locations, err)
	}
}
