package server

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/agent"
	"repro/internal/asl"
	"repro/internal/cred"
	"repro/internal/domain"
	"repro/internal/keys"
	"repro/internal/names"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/resource"
	"repro/internal/vm"
	"repro/internal/vm/analysis"
)

// admitOnce runs s's arrival gate on a and hands back the admission
// ticket a successful admit leaves on the agent.
func admitOnce(s *Server, a *agent.Agent) error {
	err := s.admit(a, s.Name())
	if tk, ok := a.TakeHostState().(*admission.Ticket); ok {
		tk.Release()
	}
	return err
}

// newUnstarted builds a server that is never started: the arrival gate
// needs no listener.
func (f *fixture) newUnstarted(t *testing.T, short string, mut ...func(*Config)) *Server {
	t.Helper()
	cfg := f.config(t, short, short+":7000")
	for _, m := range mut {
		m(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sigMisses is how many signatures s's verifier has checked for real.
func sigMisses(s *Server) uint64 { return s.cfg.Verifier.Cache.Stats().Misses }

// TestCredentialVerdictOncePerServer: the agent's owner-signed base
// signature is verified for real once per server. Six admits along
// home → w0 → w1 → w0 → w1 → home cost three ed25519 checks, one on
// each server.
func TestCredentialVerdictOncePerServer(t *testing.T) {
	f := newFixture(t)
	home, w0, w1 := f.newUnstarted(t, "home"), f.newUnstarted(t, "w0"), f.newUnstarted(t, "w1")
	a := f.agent(t, "tourist", "module m\nfunc main() { return 1 }", agent.Itinerary{}, "home:7000")
	before := map[*Server]uint64{}
	for _, s := range []*Server{home, w0, w1} {
		// The owner certificate's CA signature is cached first, so the
		// counts below are the base signature's alone.
		if err := s.cfg.Verifier.Check(a.Credentials.OwnerCert, time.Now()); err != nil {
			t.Fatal(err)
		}
		before[s] = sigMisses(s)
	}
	for i, s := range []*Server{home, w0, w1, w0, w1, home} {
		if err := admitOnce(s, a); err != nil {
			t.Fatalf("admit %d at %s: %v", i, s.Name(), err)
		}
	}
	var total uint64
	for _, s := range []*Server{home, w0, w1} {
		n := sigMisses(s) - before[s]
		if n != 1 {
			t.Errorf("%s verified the base signature %d times, want 1", s.Name(), n)
		}
		total += n
	}
	if total != 3 {
		t.Fatalf("%d real verifications for 6 admits, want 3", total)
	}
}

// TestJourneyVerifiesEachSignatureOnce: over a real tour home → w0 → w1
// → w0 → w1 → home, no server checks any signature twice — credential
// signatures and the certificates its transfer handshakes present alike
// — and each server holds the agent's base signature afterwards.
func TestJourneyVerifiesEachSignatureOnce(t *testing.T) {
	f := newFixture(t)
	ns := names.NewService()
	home := f.startServer(t, "home", "home:7000", ns)
	defer home.Stop()
	w0 := f.startServer(t, "w0", "w0:7000", ns)
	defer w0.Stop()
	w1 := f.startServer(t, "w1", "w1:7000", ns)
	defer w1.Stop()

	a := f.agent(t, "tourist", "module m\nfunc main() { report(server_name()) }",
		agent.Sequence("main", w0.Name(), w1.Name(), w0.Name(), w1.Name()), "home:7000")
	ch := home.Await(a.Name)
	if err := home.LaunchLocal(a); err != nil {
		t.Fatal(err)
	}
	back := awaitAgent(t, ch)
	if len(back.Results) != 4 {
		t.Fatalf("results = %v, log = %v", back.Results, back.Log)
	}
	for _, s := range []*Server{home, w0, w1} {
		st := s.cfg.Verifier.Cache.Stats()
		if st.Misses != uint64(st.Entries) {
			t.Errorf("%s: %d real verifications of %d distinct signatures", s.Name(), st.Misses, st.Entries)
		}
		if err := back.Credentials.Verify(s.cfg.Verifier, time.Now()); err != nil {
			t.Fatal(err)
		}
		if again := s.cfg.Verifier.Cache.Stats(); again.Misses != st.Misses {
			t.Errorf("%s: the agent's credentials were not cached", s.Name())
		}
	}
}

// withCreds is a copy of a carrying c: the same name, code and manifest.
func withCreds(t *testing.T, a *agent.Agent, c cred.Credentials) *agent.Agent {
	t.Helper()
	b, err := agent.New(c, a.Code[0].Name, a.Code, a.Itinerary)
	if err != nil {
		t.Fatal(err)
	}
	b.Manifest = a.Manifest
	return b
}

// TestArrivalChecksStayLiveAfterCaching: after a server has cached an
// agent's signatures, a copy with one flipped signature byte, a copy
// whose credentials have expired and, once the owner's certificate is
// revoked, the agent itself are all turned away.
func TestArrivalChecksStayLiveAfterCaching(t *testing.T) {
	f := newFixture(t)
	s := f.newUnstarted(t, "s1")
	a := f.agent(t, "tourist", "module m\nfunc main() { return 1 }", agent.Itinerary{}, "home:7000")
	for i := 0; i < 2; i++ {
		if err := admitOnce(s, a); err != nil {
			t.Fatal(err)
		}
	}

	forged := a.Credentials
	forged.Signature = append([]byte(nil), forged.Signature...)
	forged.Signature[0] ^= 1
	if err := admitOnce(s, withCreds(t, a, forged)); !errors.Is(err, cred.ErrBadCredSignature) {
		t.Fatalf("flipped signature byte: admit = %v", err)
	}

	// A delegation link that ends the credentials' life a second ago:
	// the base signature still hits the cache, the expiry is judged now.
	expired := a.Credentials
	if err := expired.Delegate(s.cfg.Identity, expired.EffectiveRights(), time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := admitOnce(s, withCreds(t, a, expired)); !errors.Is(err, cred.ErrCredExpired) {
		t.Fatalf("expired credentials: admit = %v", err)
	}

	f.ca.Revoke(f.owner.Name)
	if err := admitOnce(s, a); !errors.Is(err, keys.ErrRevoked) {
		t.Fatalf("owner revoked after caching: admit = %v", err)
	}
}

const counterSource = `module greedy
func main() {
  var c = get_resource("ajanta:resource:umn.edu/counter")
  report(invoke(c, "add", 1))
}`

// pinnedAgent builds an agent the way core.BuildAgent does: the
// owner's credentials pin the bundle digest and the agent declares its
// computed manifest.
func (f *fixture) pinnedAgent(t *testing.T, name, src string) *agent.Agent {
	t.Helper()
	mod, err := asl.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	code := []vm.Module{*mod}
	pin, err := agent.BundleDigest(code)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cred.IssueForCode(f.owner, names.Agent("umn.edu", name), f.owner.Name,
		cred.NewRightSet(cred.All), time.Hour, "home:7000", pin)
	if err != nil {
		t.Fatal(err)
	}
	a, err := agent.New(c, mod.Name, code, agent.Itinerary{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Manifest, err = analysis.ComputeManifest(code); err != nil {
		t.Fatal(err)
	}
	return a
}

// enforcingCounterServer is an AdmissionEnforce server with a counter
// resource the fixture's owner is granted.
func (f *fixture) enforcingCounterServer(t *testing.T) *Server {
	t.Helper()
	s := f.newUnstarted(t, "s1", func(c *Config) { c.Admission = AdmissionEnforce })
	s.Policy().AddRule(policy.Rule{Principal: f.owner.Name, Resource: "counter", Methods: []string{"*"}})
	def := &resource.Def{
		ResourceImpl: resource.NewImpl(names.Resource("umn.edu", "counter"),
			names.Principal("umn.edu", "admin"), "counter"),
		Path: "counter",
		Methods: map[string]resource.Method{
			"add": func(args []vm.Value) (vm.Value, error) { return vm.I(1), nil },
		},
	}
	if err := s.InstallResource(registry.Entry{
		Name: def.Name, Resource: def, AP: def,
		OwnerDomain: domain.ServerID, OwnerPrincipal: def.Owner,
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

// memoized reports whether s holds a manifest for a's bundle.
func memoized(t *testing.T, s *Server, a *agent.Agent) bool {
	t.Helper()
	d, err := agent.BundleDigest(a.Code)
	if err != nil {
		t.Fatal(err)
	}
	return s.manifests.get(d) != nil
}

// TestManifestMemoPinnedOnly: a pinned bundle's manifest is memoized
// after its first admission and reused by the next agent of the same
// bundle; a bundle presented under another, memoized bundle's pinned
// digest is rejected; an unpinned bundle is never memoized.
func TestManifestMemoPinnedOnly(t *testing.T) {
	f := newFixture(t)
	s := f.enforcingCounterServer(t)
	first := f.pinnedAgent(t, "first", counterSource)
	if err := admitOnce(s, first); err != nil {
		t.Fatal(err)
	}
	if !memoized(t, s, first) {
		t.Fatal("the pinned bundle's manifest was not memoized")
	}
	d, _ := agent.BundleDigest(first.Code)
	m := s.manifests.get(d)
	if err := admitOnce(s, f.pinnedAgent(t, "second", counterSource)); err != nil {
		t.Fatal(err)
	}
	if s.manifests.get(d) != m {
		t.Fatal("a second agent of the same bundle did not reuse the memoized manifest")
	}

	// A host en route swaps the code of an agent pinned to the
	// memoized bundle.
	swapped := f.pinnedAgent(t, "swapped", counterSource)
	other, err := asl.Compile("module greedy\nfunc main() { report(1) }")
	if err != nil {
		t.Fatal(err)
	}
	swapped.Code = []vm.Module{*other}
	if err := admitOnce(s, swapped); err == nil {
		t.Fatal("a bundle under another bundle's pinned digest was admitted")
	}
	if memoized(t, s, swapped) {
		t.Fatal("the swapped bundle's manifest was memoized")
	}

	unpinned := f.agent(t, "unpinned", "module other\nfunc main() { report(2) }", agent.Itinerary{}, "home:7000")
	if err := admitOnce(s, unpinned); err != nil {
		t.Fatal(err)
	}
	if memoized(t, s, unpinned) {
		t.Fatal("an unpinned bundle's manifest was memoized")
	}
}

// TestManifestMemoHitChecksDeclared: on a memo hit the declared
// manifest must still cover the computed one.
func TestManifestMemoHitChecksDeclared(t *testing.T) {
	f := newFixture(t)
	s := f.enforcingCounterServer(t)
	if err := admitOnce(s, f.pinnedAgent(t, "honest", counterSource)); err != nil {
		t.Fatal(err)
	}
	liar := f.pinnedAgent(t, "liar", counterSource)
	liar.Manifest = &analysis.Manifest{}
	if !memoized(t, s, liar) {
		t.Fatal("no memo hit to test")
	}
	if err := admitOnce(s, liar); !errors.Is(err, ErrAdmission) {
		t.Fatalf("an under-declared manifest on a memo hit: admit = %v", err)
	}
}

// TestManifestMemoHitDecidesPolicy: a memo hit is judged against the
// policy as it is now: removing the rule that admitted the bundle turns
// the next agent of it away.
func TestManifestMemoHitDecidesPolicy(t *testing.T) {
	f := newFixture(t)
	s := f.enforcingCounterServer(t)
	if err := admitOnce(s, f.pinnedAgent(t, "before", counterSource)); err != nil {
		t.Fatal(err)
	}
	s.Policy().SetRules(nil)
	after := f.pinnedAgent(t, "after", counterSource)
	if !memoized(t, s, after) {
		t.Fatal("no memo hit to test")
	}
	if err := admitOnce(s, after); !errors.Is(err, ErrAdmission) {
		t.Fatalf("rule removed after memoizing: admit = %v", err)
	}
}

// TestManifestMemoConcurrent: concurrent arrivals whose digests share a
// memo slot never read another bundle's manifest (run with -race).
func TestManifestMemoConcurrent(t *testing.T) {
	var mm manifestMemo
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			digest := make([]byte, 32)
			digest[31] = byte(g) // slot 0 for every goroutine
			mine := &analysis.Manifest{}
			for i := 0; i < 500; i++ {
				mm.put(digest, mine)
				if m := mm.get(digest); m != nil && m != mine {
					t.Errorf("goroutine %d read another digest's manifest", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
