package server

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/agent"
	"repro/internal/domain"
	"repro/internal/names"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/resource"
	"repro/internal/retry"
	"repro/internal/vm"
)

// TestTierRateShedAtGate drives the arrival gate directly through
// LaunchLocal: a tier with a one-per-second bucket admits the first
// agent and sheds the second with a typed, hinted error.
func TestTierRateShedAtGate(t *testing.T) {
	f := newFixture(t)
	s := f.startServer(t, "s1", "s1:7000", names.NewService())
	defer s.Stop()
	s.cfg.Policy.DefineTier(policy.Tier{Name: "bulk", Rate: 1, Burst: 1})
	s.cfg.Policy.AssignTier(policy.TierAssignment{Principal: f.owner.Name, Tier: "bulk"})

	src := "module m\nfunc main() { report(1) }"
	first := f.agent(t, "first", src, agent.Itinerary{}, "s1:7000")
	ch := s.Await(first.Name)
	if err := s.LaunchLocal(first); err != nil {
		t.Fatalf("first agent shed: %v", err)
	}
	second := f.agent(t, "second", src, agent.Itinerary{}, "s1:7000")
	err := s.LaunchLocal(second)
	if !errors.Is(err, admission.ErrShed) {
		t.Fatalf("second agent: %v, want ErrShed", err)
	}
	var shed *admission.ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("second agent error type %T", err)
	}
	if shed.RetryAfter <= 0 {
		t.Fatalf("shed without a retry-after hint: %+v", shed)
	}
	if shed.Tier != "bulk" || shed.Cause != "rate" {
		t.Fatalf("shed = %+v, want tier bulk cause rate", shed)
	}
	<-ch
	if st := s.Stats(); st.ShedRateLimit != 1 {
		t.Fatalf("ShedRateLimit = %d, want 1", st.ShedRateLimit)
	}
}

// TestTierFuelCap: a tier's fuel quota caps the visit's instruction
// budget below the server default, so a tight-loop agent that would run
// for millions of instructions dies of fuel exhaustion instead.
func TestTierFuelCap(t *testing.T) {
	f := newFixture(t)
	s := f.startServer(t, "s1", "s1:7000", names.NewService())
	defer s.Stop()
	s.cfg.Policy.DefineTier(policy.Tier{Name: "tight", Rate: 1000, Burst: 1000, Fuel: 200})
	s.cfg.Policy.AssignTier(policy.TierAssignment{Principal: f.owner.Name, Tier: "tight"})

	a := f.agent(t, "burner",
		"module m\nfunc main() { var i = 0 while i < 100000 { i = i + 1 } report(i) }",
		agent.Itinerary{Stops: []agent.Stop{{Servers: []names.Name{s.Name()}, Entry: "main"}}},
		"s1:7000")
	ch := s.Await(a.Name)
	if err := s.LaunchLocal(a); err != nil {
		t.Fatal(err)
	}
	select {
	case back := <-ch:
		if len(back.Results) != 0 {
			t.Fatalf("tier-capped agent completed: %+v", back.Results)
		}
		if len(back.Log) == 0 || !strings.Contains(back.Log[0], "quota exhausted") {
			t.Fatalf("expected a fuel-exhaustion log line, got %v", back.Log)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("agent never came home")
	}
}

// TestChaosOverloadShedding is the overload-safety invariant check: a
// worker whose tier admits at most 2 concurrent visits from this owner
// faces 16 concurrent arrivals over a seeded lossy network. Every shed
// travels back as a transient, hinted error; the sender's retry and
// dead-letter machinery must eventually land every single agent —
// admitted after backoff or parked for redelivery — with zero losses
// and zero permanent rejections of compliant agents.
//
// The overload is built in rather than left to the scheduler: each
// visit first blocks on a gate resource installed on the worker, so
// the first two admitted visits hold both slots while the rest of the
// fleet arrives. The gate opens once the worker has recorded a shed
// (or after a bounded backstop, in which case the sheds assertion
// fails rather than the test hanging).
func TestChaosOverloadShedding(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	const (
		nAgents = 16
		seed    = 7
	)
	f := newFixture(t)
	ns := names.NewService()
	pol := retry.Policy{
		MaxAttempts: 25,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    40 * time.Millisecond,
	}
	mk := func(short, addr string) *Server {
		cfg := f.config(t, short, addr)
		cfg.NameService = ns
		cfg.Retry = pol
		cfg.RedeliverEvery = 25 * time.Millisecond
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	home := mk("home", "home:7000")
	defer home.Stop()
	w2 := mk("w2", "w2:7000")
	defer w2.Stop()

	// The overloaded worker's tier: 2 concurrent visits for this owner,
	// generous rate so concurrency is the binding limit.
	w2.cfg.Policy.DefineTier(policy.Tier{Name: "visitor", Rate: 5000, Burst: 64, MaxConcurrent: 2})
	w2.cfg.Policy.AssignTier(policy.TierAssignment{Principal: f.owner.Name, Tier: "visitor"})

	// The gate holds every visit until w2 has shed, so admitted visits
	// keep their slots while later arrivals meet a full tier.
	gate := make(chan struct{})
	var openOnce sync.Once
	openGate := func() { openOnce.Do(func() { close(gate) }) }
	// Deferred after the Stops, so it runs before them: Stop waits for
	// hosted visits, which a closed gate would hold forever.
	defer openGate()
	w2.cfg.Policy.AddRule(policy.Rule{AnyPrincipal: true, Resource: "gate", Methods: []string{"wait"}})
	gateDef := &resource.Def{
		ResourceImpl: resource.NewImpl(names.Resource("umn.edu", "gate"),
			names.Principal("umn.edu", "admin"), ""),
		Path: "gate",
		Methods: map[string]resource.Method{
			"wait": func([]vm.Value) (vm.Value, error) { <-gate; return vm.I(1), nil },
		},
	}
	if err := w2.InstallResource(registry.Entry{
		Name: gateDef.Name, Resource: gateDef, AP: gateDef, OwnerDomain: domain.ServerID,
	}); err != nil {
		t.Fatal(err)
	}
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		backstop := time.After(20 * time.Second)
		for {
			select {
			case <-gate:
				return
			case <-backstop:
				openGate()
				return
			case <-tick.C:
				if st := w2.Stats(); st.ShedRateLimit+st.ShedConcurrency > 0 {
					openGate()
					return
				}
			}
		}
	}()

	// Seeded background noise so sheds interleave with genuine network
	// retries — the two must not confuse each other's classification.
	f.nw.SeedFaults(seed)
	f.nw.SetDropProb("home:7000", "w2:7000", 0.1)

	type launched struct {
		name names.Name
		ch   <-chan *agent.Agent
	}
	fleet := make([]launched, 0, nAgents)
	for i := 0; i < nAgents; i++ {
		a := f.agent(t, fmt.Sprintf("storm%02d", i),
			`module m
func main() {
  invoke(get_resource("ajanta:resource:umn.edu/gate"), "wait")
  report(1)
}`,
			agent.Itinerary{Stops: []agent.Stop{
				{Servers: []names.Name{w2.Name()}, Entry: "main"},
			}}, "home:7000")
		ch := home.Await(a.Name)
		if err := home.LaunchLocal(a); err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, launched{name: a.Name, ch: ch})
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	returned := make(map[names.Name]*agent.Agent, nAgents)
	for _, l := range fleet {
		wg.Add(1)
		go func(l launched) {
			defer wg.Done()
			select {
			case back := <-l.ch:
				mu.Lock()
				returned[l.name] = back
				mu.Unlock()
			case <-time.After(90 * time.Second):
			}
		}(l)
	}
	wg.Wait()

	// The invariant: every agent is accounted for — home with results,
	// or parked awaiting redelivery. None lost, and none permanently
	// rejected (a compliant agent that came home with only a log line
	// means a shed was misclassified permanent).
	parked := make(map[names.Name]bool)
	for _, s := range []*Server{home, w2} {
		for _, n := range s.ParkedAgents() {
			parked[n] = true
		}
	}
	var lost, rejected []string
	completed := 0
	for _, l := range fleet {
		back, ok := returned[l.name]
		switch {
		case ok && len(back.Results) == 1:
			completed++
		case ok:
			rejected = append(rejected, fmt.Sprintf("%s (log: %v)", l.name, back.Log))
		case parked[l.name]:
			// Parked, not lost: the dead-letter loop owns it.
		default:
			lost = append(lost, l.name.String())
		}
	}
	if len(lost) > 0 {
		t.Fatalf("%d/%d agents lost: %s", len(lost), nAgents, strings.Join(lost, ", "))
	}
	if len(rejected) > 0 {
		t.Fatalf("compliant agents permanently rejected under overload: %s",
			strings.Join(rejected, "; "))
	}

	w2Stats := w2.Stats()
	homeStats := home.Stats()
	t.Logf("overload: %d completed, %d parked, sheds rate=%d conc=%d, home retries=%d",
		completed, len(parked), w2Stats.ShedRateLimit, w2Stats.ShedConcurrency,
		homeStats.Retries)
	// 16 near-simultaneous arrivals against a 2-visit cap must have
	// shed; zero sheds means the gate never engaged and the test
	// exercised nothing.
	if w2Stats.ShedRateLimit+w2Stats.ShedConcurrency == 0 {
		t.Error("overload produced no sheds — admission gate inert")
	}
	if homeStats.Retries == 0 {
		t.Error("sheds produced no sender retries — shed not classified transient")
	}
}

// TestTierHotReloadDuringTraffic: retuning the tier configuration while
// agents are arriving must take effect without blocking or failing
// in-flight admissions — the epoch flips, old tickets stay valid.
func TestTierHotReloadDuringTraffic(t *testing.T) {
	f := newFixture(t)
	s := f.startServer(t, "s1", "s1:7000", names.NewService())
	defer s.Stop()
	s.cfg.Policy.DefineTier(policy.Tier{Name: "t", Rate: 100000, Burst: 100000, MaxConcurrent: 64})
	s.cfg.Policy.AssignTier(policy.TierAssignment{AnyPrincipal: true, Tier: "t"})

	stop := make(chan struct{})
	var reloads sync.WaitGroup
	reloads.Add(1)
	go func() {
		defer reloads.Done()
		flip := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			flip = !flip
			limit := 64
			if flip {
				limit = 32
			}
			s.cfg.Policy.SetTierConfig(
				[]policy.Tier{{Name: "t", Rate: 100000, Burst: 100000, MaxConcurrent: limit}},
				[]policy.TierAssignment{{AnyPrincipal: true, Tier: "t"}},
			)
		}
	}()

	const n = 20
	chans := make([]<-chan *agent.Agent, 0, n)
	for i := 0; i < n; i++ {
		a := f.agent(t, fmt.Sprintf("reload%02d", i),
			"module m\nfunc main() { report(1) }",
			agent.Itinerary{Stops: []agent.Stop{{Servers: []names.Name{s.Name()}, Entry: "main"}}},
			"s1:7000")
		chans = append(chans, s.Await(a.Name))
		if err := s.LaunchLocal(a); err != nil {
			t.Fatalf("launch %d during hot reload: %v", i, err)
		}
	}
	for i, ch := range chans {
		select {
		case back := <-ch:
			if len(back.Results) != 1 {
				t.Fatalf("agent %d failed during hot reload: %v", i, back.Log)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("agent %d never came home", i)
		}
	}
	close(stop)
	reloads.Wait()
}
