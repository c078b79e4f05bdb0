// Package core is the platform facade: it wires the substrates — CA,
// name service, simulated or real network, agent servers — into a
// running mobile-agent platform and offers one-call helpers for the
// common flows (start a server, build an agent from ASL source, launch
// it and await its homecoming). The examples and the public ajanta
// package sit on top of this.
package core

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/agent"
	"repro/internal/asl"
	"repro/internal/cred"
	"repro/internal/keys"
	"repro/internal/names"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/resource"
	"repro/internal/retry"
	"repro/internal/server"
	"repro/internal/transfer"
	"repro/internal/vm"
	"repro/internal/vm/analysis"
)

// DefaultTTL is the default credential lifetime for launched agents.
const DefaultTTL = time.Hour

// Platform is one administrative domain's worth of infrastructure:
// a certification authority, a name service, a network, and any number
// of agent servers.
type Platform struct {
	Authority string
	CA        *keys.Registry
	NS        *names.Service
	Net       *netsim.Network

	servers map[names.Name]*server.Server
	useTCP  bool
}

// NewPlatform creates a platform whose servers communicate over the
// in-memory simulated network.
func NewPlatform(authority string) (*Platform, error) {
	return NewPlatformWithLease(authority, 0)
}

// NewPlatformWithLease is NewPlatform with an explicit name-service
// lease TTL (0 = names.DefaultLease). Short leases make every server's
// resolver cache expire and re-fetch continuously — the rebind-churn
// regime the cluster load harness (internal/loadharness) scripts to
// stress directory convergence under load.
func NewPlatformWithLease(authority string, lease time.Duration) (*Platform, error) {
	ca, err := keys.NewRegistry(names.Principal(authority, "ca"))
	if err != nil {
		return nil, err
	}
	return &Platform{
		Authority: authority,
		CA:        ca,
		NS:        names.NewServiceWithLease(lease),
		Net:       netsim.NewNetwork(),
		servers:   make(map[names.Name]*server.Server),
	}, nil
}

// NewTCPPlatform creates a platform whose servers listen on real TCP
// addresses (used by the cmd/ tools).
func NewTCPPlatform(authority string) (*Platform, error) {
	p, err := NewPlatform(authority)
	if err != nil {
		return nil, err
	}
	p.useTCP = true
	return p, nil
}

// NewTCPPlatformWithCA creates a TCP platform around an imported CA,
// enabling multi-process deployments: every process importing the same
// CA state issues certificates the others trust.
func NewTCPPlatformWithCA(authority string, ca *keys.Registry) *Platform {
	return &Platform{
		Authority: authority,
		CA:        ca,
		NS:        names.NewService(),
		Net:       netsim.NewNetwork(),
		servers:   make(map[names.Name]*server.Server),
		useTCP:    true,
	}
}

// BindPeer registers another process's server in this platform's name
// service so local servers can dispatch agents to it.
func (p *Platform) BindPeer(shortName, addr string) error {
	n := names.Server(p.Authority, shortName)
	return p.NS.Bind(n, names.Location{Address: addr, ServerName: n})
}

// ServerConfig tunes one server.
type ServerConfig struct {
	// Fuel is the per-visit instruction budget (0 = vm.DefaultFuel).
	Fuel uint64
	// MaxAgents caps concurrent visitors (0 = unlimited).
	MaxAgents int
	// Rules seed the server's security policy.
	Rules []policy.Rule
	// Tiers and TierAssignments seed the admission-tier configuration
	// (per-principal rate limiting, concurrent-visit caps and fuel
	// quotas at the arrival gate — PROTOCOLS.md §3.3).
	Tiers           []policy.Tier
	TierAssignments []policy.TierAssignment
	// TrustedSources are ASL sources compiled into the server's
	// trusted module set (the local class path).
	TrustedSources []string
	// StrictNamespaces rejects bundles that shadow trusted modules.
	StrictNamespaces bool
	// InstalledResourcePolicy opens dynamically installed resources
	// to all principals (demo default).
	InstalledResourcePolicy bool
	// DispatchRestriction makes this server narrow the rights of
	// every agent it forwards (§5.2's subcontract delegation).
	DispatchRestriction cred.RightSet
	// Retry tunes dispatch fault tolerance (zero fields = defaults).
	Retry retry.Policy
	// RedeliverEvery is the dead-letter redelivery period
	// (0 = server.DefaultRedeliverEvery).
	RedeliverEvery time.Duration
	// Admission selects manifest-based admission control at the
	// arrival gate (server.AdmissionOff / server.AdmissionEnforce).
	Admission server.AdmissionMode
	// ChannelPool tunes the outbound persistent-channel pool (zero
	// fields = pool defaults).
	ChannelPool transfer.PoolConfig
}

// StartServer creates, configures and starts an agent server.
func (p *Platform) StartServer(shortName, addr string, sc ServerConfig) (*server.Server, error) {
	id, err := keys.NewIdentity(p.CA, names.Server(p.Authority, shortName), 24*time.Hour)
	if err != nil {
		return nil, err
	}
	eng := policy.NewEngine()
	eng.SetRules(sc.Rules)
	if len(sc.Tiers) > 0 || len(sc.TierAssignments) > 0 {
		eng.SetTierConfig(sc.Tiers, sc.TierAssignments)
	}

	cfg := server.Config{
		Identity:                id,
		Verifier:                p.CA.Verifier(),
		Address:                 addr,
		NameService:             p.NS,
		Policy:                  eng,
		Fuel:                    sc.Fuel,
		MaxAgents:               sc.MaxAgents,
		StrictNamespaces:        sc.StrictNamespaces,
		InstalledResourcePolicy: sc.InstalledResourcePolicy,
		DispatchRestriction:     sc.DispatchRestriction,
		Retry:                   sc.Retry,
		RedeliverEvery:          sc.RedeliverEvery,
		Admission:               sc.Admission,
		ChannelPool:             sc.ChannelPool,
	}
	if p.useTCP {
		cfg.Dial = func(a string) (net.Conn, error) { return net.Dial("tcp", a) }
		cfg.Listen = func(a string) (net.Listener, error) { return net.Listen("tcp", a) }
	} else {
		// Dial as this server's own address so per-link fault
		// injection (drops, partitions) can target server pairs.
		self := addr
		cfg.Dial = func(a string) (net.Conn, error) { return p.Net.DialFrom(self, a) }
		cfg.Listen = func(a string) (net.Listener, error) { return p.Net.Listen(a) }
		// The simulated per-link latency matrix doubles as the
		// proximity estimate for location-aware routing: resolvers
		// rank multi-location answers and dispatch ranks itinerary
		// alternatives nearest-first. Until a matrix is attached
		// (Net.SetLatencyMatrix) every link reads 0 — unmeasured —
		// and routing keeps itinerary order.
		cfg.Proximity = p.Net.Latency
	}

	if len(sc.TrustedSources) > 0 {
		mods := make([]*vm.Module, 0, len(sc.TrustedSources))
		for _, src := range sc.TrustedSources {
			m, err := asl.Compile(src)
			if err != nil {
				return nil, fmt.Errorf("core: trusted source: %w", err)
			}
			mods = append(mods, m)
		}
		ts, err := newTrustedSet(mods)
		if err != nil {
			return nil, err
		}
		cfg.Trusted = ts
	}

	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Start(); err != nil {
		return nil, err
	}
	p.servers[s.Name()] = s
	return s, nil
}

// Server returns a started server by its global name.
func (p *Platform) Server(n names.Name) (*server.Server, bool) {
	s, ok := p.servers[n]
	return s, ok
}

// Servers lists all started servers.
func (p *Platform) Servers() []*server.Server {
	out := make([]*server.Server, 0, len(p.servers))
	for _, s := range p.servers {
		out = append(out, s)
	}
	return out
}

// StopAll shuts every server down.
func (p *Platform) StopAll() {
	for _, s := range p.servers {
		s.Stop()
	}
}

// NewOwner certifies a human principal under the platform CA.
func (p *Platform) NewOwner(shortName string) (keys.Identity, error) {
	return keys.NewIdentity(p.CA, names.Principal(p.Authority, shortName), 24*time.Hour)
}

// AgentSpec describes an agent to build.
type AgentSpec struct {
	// Owner is the launching principal's identity.
	Owner keys.Identity
	// Name is the agent's short name (unique per authority).
	Name string
	// Source is the agent's main module in ASL; ExtraSources are
	// additional modules carried in the bundle.
	Source       string
	ExtraSources []string
	// Rights are the privileges the owner delegates (§5.2); empty
	// means everything ("*").
	Rights cred.RightSet
	// TTL bounds the credentials (0 = DefaultTTL).
	TTL time.Duration
	// Itinerary is the planned tour; agents using go() may leave it
	// empty.
	Itinerary agent.Itinerary
	// Home is the server the agent returns to; required.
	Home *server.Server
}

// BuildAgent compiles the sources, issues credentials and assembles the
// agent.
func (p *Platform) BuildAgent(spec AgentSpec) (*agent.Agent, error) {
	if spec.Home == nil {
		return nil, errors.New("core: agent needs a home server")
	}
	main, err := asl.Compile(spec.Source)
	if err != nil {
		return nil, err
	}
	bundle := []vm.Module{*main}
	for _, src := range spec.ExtraSources {
		m, err := asl.Compile(src)
		if err != nil {
			return nil, err
		}
		bundle = append(bundle, *m)
	}
	rights := spec.Rights
	if rights.IsEmpty() {
		rights = cred.NewRightSet(cred.All)
	}
	ttl := spec.TTL
	if ttl == 0 {
		ttl = DefaultTTL
	}
	agentName, err := names.New(names.KindAgent, p.Authority, spec.Name)
	if err != nil {
		return nil, fmt.Errorf("core: agent name: %w", err)
	}
	// Pin the code bundle under the owner's signature so no host on
	// the tour can modify the agent's code undetected.
	digest, err := agent.BundleDigest(bundle)
	if err != nil {
		return nil, err
	}
	creds, err := cred.IssueForCode(spec.Owner, agentName,
		spec.Owner.Name, rights, ttl, spec.Home.Address(), digest)
	if err != nil {
		return nil, err
	}
	a, err := agent.New(creds, main.Name, bundle, spec.Itinerary)
	if err != nil {
		return nil, err
	}
	// Attach the declared access manifest: the static analyzer's
	// over-approximation of everything the bundle can ask a host for.
	// Servers enforcing admission re-verify it against their own
	// analysis before hosting the agent.
	man, err := analysis.ComputeManifest(bundle)
	if err != nil {
		return nil, fmt.Errorf("core: manifest: %w", err)
	}
	a.Manifest = man
	return a, nil
}

// Launch submits the agent at its home server and returns the channel
// that receives it when it completes its journey.
func (p *Platform) Launch(home *server.Server, a *agent.Agent) (<-chan *agent.Agent, error) {
	ch := home.Await(a.Name)
	if err := home.LaunchLocal(a); err != nil {
		return nil, err
	}
	return ch, nil
}

// LaunchAndWait launches the agent and blocks until homecoming or
// timeout.
func (p *Platform) LaunchAndWait(home *server.Server, a *agent.Agent, timeout time.Duration) (*agent.Agent, error) {
	ch, err := p.Launch(home, a)
	if err != nil {
		return nil, err
	}
	back, ok := awaitWithTimeout(ch, timeout)
	if !ok {
		return nil, fmt.Errorf("core: agent %s did not return within %v", a.Name, timeout)
	}
	return back, nil
}

// awaitWithTimeout waits for a homecoming on ch for at most timeout,
// riding the shared coarse clock (resource.CoarseSleep) instead of
// allocating a time.Timer per launch — the same consolidation the
// retry backoffs and transfer deadlines use (docs/PROTOCOLS.md §8.2).
// Resolution is the coarse tick (~1ms), which is noise against any
// realistic journey timeout. ok is false when the timeout fired first.
func awaitWithTimeout(ch <-chan *agent.Agent, timeout time.Duration) (back *agent.Agent, ok bool) {
	// Fast path: already home.
	select {
	case back = <-ch:
		return back, true
	default:
	}
	arrived := make(chan struct{})
	defer close(arrived) // cancels the sleeper's wait promptly
	timedOut := make(chan struct{})
	go func() {
		if canceled := resource.CoarseSleep(timeout, arrived); !canceled {
			close(timedOut)
		}
	}()
	select {
	case back = <-ch:
		return back, true
	case <-timedOut:
		return nil, false
	}
}
