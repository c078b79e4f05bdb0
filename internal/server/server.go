// Package server implements the Ajanta agent server (Fig. 1): the
// user-level process that hosts visiting agents. It assembles every
// substrate — the agent environment (host-call interface), the domain
// database, the resource registry, the security manager, per-agent
// namespaces, the transfer protocol — into the structure of the paper's
// Figure 1, and implements the six-step dynamic resource binding
// protocol of Figure 6.
//
// The package is split by concern:
//
//	server.go    — configuration, construction, accessors, queries
//	lifecycle.go — Start/Stop, Crash/Restart, the accept loop
//	hosting.go   — admission gate, the visit state machine, homecoming
//	dispatch.go  — itinerary dispatch, retrying sends, delivery
//	binding.go   — the shared resource-access path (Fig. 6 steps 2–6)
//	hostcalls.go — the agent environment's host-call surface
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/agent"
	"repro/internal/cred"
	"repro/internal/domain"
	"repro/internal/keys"
	"repro/internal/loader"
	"repro/internal/names"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/resource"
	"repro/internal/retry"
	"repro/internal/sandbox"
	"repro/internal/transfer"
	"repro/internal/vm"
)

// Config assembles a server.
type Config struct {
	// Identity is the server's certified identity; Verifier checks
	// peers and agent credentials against the platform CA.
	Identity keys.Identity
	Verifier keys.Verifier
	// Address is the server's dialable endpoint; it is bound in the
	// name service on Start.
	Address string
	// NameService is the authoritative directory this server binds
	// into and resolves against: a single names.Service, or a
	// names.Federation partitioning authority across stores. The
	// server never queries it directly on hot paths — every dispatch
	// and host call resolves through the per-server lease-caching
	// resolver built in New.
	NameService names.Directory
	// Proximity estimates the network latency between two addresses
	// (netsim platforms wire the simulated per-link latency matrix
	// here). When set, the resolver ranks multi-location answers
	// nearest-first and itinerary dispatch prefers the nearest
	// alternative; nil preserves itinerary order.
	Proximity func(from, to string) time.Duration
	// Policy is the server's security policy engine.
	Policy *policy.Engine
	// Trusted is the server's local module path (class-path
	// analogue); may be nil for none.
	Trusted *loader.TrustedSet
	// Dial and Listen select the transport (netsim or TCP).
	Dial   func(addr string) (net.Conn, error)
	Listen func(addr string) (net.Listener, error)
	// Fuel is the per-visit instruction budget (DoS containment);
	// 0 applies vm.DefaultFuel.
	Fuel uint64
	// MaxAgents caps concurrently hosted agents; 0 = unlimited.
	MaxAgents int
	// Admission selects manifest-based admission control at the
	// arrival gate (admission.go). AdmissionOff (zero value) preserves
	// the binding-time-only checks; AdmissionEnforce statically
	// analyzes every arriving bundle and rejects over-privileged
	// agents before any VM starts.
	Admission AdmissionMode
	// StrictNamespaces rejects agent bundles that shadow trusted
	// modules instead of silently ignoring the impostors.
	StrictNamespaces bool
	// InstalledResourcePolicy, when true, automatically grants all
	// principals access to resources installed dynamically by agents
	// (convenient for demos; production servers configure rules).
	InstalledResourcePolicy bool
	// DispatchRestriction, when non-empty, makes this server restrict
	// every agent it forwards: a signed delegation link narrows the
	// agent's effective rights to those both the agent and this set
	// permit (§5.2: "a server may also need to forward an agent to
	// another server (like a subcontract) ... restricting some of its
	// existing [privileges]").
	DispatchRestriction cred.RightSet
	// Retry tunes the dispatch fault-tolerance policy: every network
	// send (itinerary stop, go() detour, homecoming) retries transient
	// failures with exponential backoff under this policy. Zero fields
	// take the retry package defaults; the error classifier defaults
	// to the transfer-aware one (rejection, authentication failure and
	// unbound names are permanent, everything else transient).
	Retry retry.Policy
	// RedeliverEvery is the dead-letter redelivery period; 0 applies
	// DefaultRedeliverEvery.
	RedeliverEvery time.Duration
	// ChannelPool tunes the persistent-channel pool every outbound
	// transfer goes through: sessions to repeat destinations are kept
	// open and reused, paying the authentication handshake once per
	// connection instead of once per agent. Zero fields take pool
	// defaults.
	ChannelPool transfer.PoolConfig
	// DecisionCacheSize bounds the policy decision cache consulted on
	// every resource binding (binding.go); 0 applies
	// policy.DefaultCacheSize.
	DecisionCacheSize int
}

// Server is one agent server.
type Server struct {
	cfg      Config
	reg      *registry.Registry
	db       *domain.Database
	secmgr   *sandbox.Manager
	endpoint *transfer.Endpoint
	pool     *transfer.Pool
	// resolver is the server's lease-caching view of the authoritative
	// directory: dispatch and host calls resolve through it (lock-free
	// on lease-valid hits), and accepted transfer acks seed it with
	// forwarding hints.
	resolver *names.Resolver
	// cache memoizes policy decisions per (credentials digest,
	// resource), stamped with the policy+registry epochs they were
	// computed under.
	cache *policy.DecisionCache
	// gate applies the policy's admission tiers (per-principal rate
	// limits and concurrency quotas) at the arrival gate, shedding
	// over-limit agents back to their sender with a retry-after hint.
	gate *admission.Gate

	// netMu guards the listener state (lifecycle.go): the live
	// listener incarnation and the inbound transfer streams.
	netMu    sync.Mutex
	listener net.Listener
	inbound  map[net.Conn]struct{} // live inbound transfer streams

	wg       sync.WaitGroup
	quit     chan struct{}
	quitOnce sync.Once

	retry retry.Policy // resolved dispatch policy
	stats counters

	// The server's mutable maps are guarded by four small locks split
	// along the package's file boundaries, instead of the single
	// coarse mutex the hosting path used to take several times per
	// visit. Lock-ordering rule (docs/PROTOCOLS.md §8.5): the only
	// pair ever nested is visitMu → parkMu (Await and deliverLocal
	// must check-and-set waiters and held atomically); every other
	// acquisition is singular. Never take visitMu while holding any of
	// the others. The //lock:order annotation below is the
	// machine-readable form of this rule: the lockorder analyzer
	// (cmd/repolint, docs/ANALYZERS.md) derives the allowed partial
	// order from it and flags any other nesting of these four locks,
	// including through one level of intra-package calls.

	// visitMu guards the hosting state machine (hosting.go).
	//
	//lock:order visitMu < parkMu
	visitMu sync.Mutex
	visits  map[names.Name]*visit
	waiters map[names.Name]chan *agent.Agent

	// parkMu guards the delivery backstops (dispatch.go, deadletter.go).
	parkMu sync.Mutex
	held   map[names.Name]*agent.Agent // homecomings awaiting an Await call
	parked map[names.Name]*parcel      // dead-letter store (deadletter.go)

	// finalMu guards the post-visit ledgers (lifecycle accounting).
	finalMu  sync.Mutex
	statuses map[names.Name]domain.Status // last known, survives domain removal
	ledger   map[names.Name]uint64        // owner -> accumulated charges

}

// visit is one hosted agent's execution context.
type visit struct {
	agent *agent.Agent
	dom   domain.ID
	// credKey is the agent's credentials digest, computed once per
	// visit and used as the decision-cache key on every resource
	// binding (and by the admission gate before the visit existed).
	credKey cred.Digest
	ns      *loader.Namespace
	env     *vm.Env
	meter   *vm.Meter
	handles map[uint64]*boundResource
	nextH   uint64
	// usage accumulates this visit's per-binding accounting locally —
	// atomic bumps with no database lock — and is flushed into the
	// domain DB in one batch when the visit finishes (any terminal
	// path: departure, homecoming, failure, kill; a later dead-letter
	// parking changes nothing, the flush already happened).
	usage map[string]*visitUsage
	// migrate is set by the go host call: destination + entry.
	migrateDest  names.Name
	migrateEntry string
	// mailboxes names the mailboxes this visit registered; finish
	// unregisters them, withdraws their names and closes the queue.
	mailboxes  []names.Name
	mailbox    []vm.Value
	mailClosed bool
	mailMu     sync.Mutex
}

// boundResource is one live resource handle: the proxy plus the
// visit-local usage accumulator invocations settle into.
type boundResource struct {
	proxy *resource.Proxy
	usage *visitUsage
}

// visitUsage is one binding's local usage tally. Counters are atomic so
// accounting stays exact even if an activity's invocations ever overlap
// the visit's teardown; the common case is uncontended.
type visitUsage struct {
	path        string
	invocations atomic.Uint64
	charge      atomic.Uint64
}

// usageFor returns the visit's accumulator for a resource path,
// creating it on first bind. Called only on the visit's own activity.
func (v *visit) usageFor(path string) *visitUsage {
	if u, ok := v.usage[path]; ok {
		return u
	}
	u := &visitUsage{path: path}
	v.usage[path] = u
	return u
}

// usageBatch snapshots the visit's accumulated usage for FlushUsage.
func (v *visit) usageBatch() []domain.Usage {
	if len(v.usage) == 0 {
		return nil
	}
	out := make([]domain.Usage, 0, len(v.usage))
	for _, u := range v.usage {
		out = append(out, domain.Usage{
			ResourcePath: u.path,
			Invocations:  u.invocations.Load(),
			Charge:       u.charge.Load(),
		})
	}
	return out
}

// errMigrate is the sentinel the go host call uses to unwind the VM.
var errMigrate = errors.New("server: migration requested")

// Server-level errors.
var (
	ErrCapacity    = errors.New("server: at capacity")
	ErrNoSuchAgent = errors.New("server: no such agent")
)

// New builds a server from a config.
func New(cfg Config) (*Server, error) {
	if cfg.NameService == nil {
		return nil, errors.New("server: config needs a NameService")
	}
	if cfg.Policy == nil {
		cfg.Policy = policy.NewEngine()
	}
	if cfg.Trusted == nil {
		ts, err := loader.NewTrustedSet()
		if err != nil {
			return nil, err
		}
		cfg.Trusted = ts
	}
	if cfg.Fuel == 0 {
		cfg.Fuel = vm.DefaultFuel
	}
	s := &Server{
		cfg:      cfg,
		reg:      registry.New(),
		db:       domain.NewDatabase(),
		secmgr:   sandbox.New(256),
		cache:    policy.NewDecisionCache(cfg.DecisionCacheSize),
		quit:     make(chan struct{}),
		inbound:  make(map[net.Conn]struct{}),
		visits:   make(map[names.Name]*visit),
		waiters:  make(map[names.Name]chan *agent.Agent),
		held:     make(map[names.Name]*agent.Agent),
		parked:   make(map[names.Name]*parcel),
		statuses: make(map[names.Name]domain.Status),
		ledger:   make(map[names.Name]uint64),
	}
	s.gate = admission.NewGate(cfg.Policy, nil)
	// The resolver rides the process-wide coarse clock: lease checks
	// happen on every dispatch-path resolve, and ~1ms granularity is
	// noise against any realistic lease TTL.
	s.resolver = names.NewResolver(cfg.NameService, names.ResolverConfig{
		Self:      cfg.Address,
		Proximity: cfg.Proximity,
		Now:       func() int64 { return resource.CoarseTime().UnixNano() },
	})
	// Resolve the dispatch retry policy: transfer-aware classification
	// unless the config overrides it, and a hook that counts every
	// backoff fired for Stats.
	s.retry = cfg.Retry
	if s.retry.Classify == nil {
		s.retry.Classify = transientTransferErr
	}
	userHook := s.retry.OnRetry
	s.retry.OnRetry = func(attempt int, err error, d time.Duration) {
		s.stats.retries.Add(1)
		if userHook != nil {
			userHook(attempt, err, d)
		}
	}
	s.endpoint = &transfer.Endpoint{
		Identity:         cfg.Identity,
		Verifier:         cfg.Verifier,
		HandshakeTimeout: 5 * time.Second,
		TransferTimeout:  s.retry.PerAttempt, // 0 -> no overall deadline
	}
	if s.endpoint.TransferTimeout == 0 {
		s.endpoint.TransferTimeout = retry.DefaultPerAttempt
	}
	// Piggyback naming updates on transfer acks: an accepted ack
	// already proves where the agent now lives, so the rebind and the
	// local forwarding hint cost zero extra round-trips.
	s.endpoint.OnAck = s.afterTransferAck
	if cfg.Dial != nil {
		pc := cfg.ChannelPool
		pc.Dial = cfg.Dial
		s.pool = transfer.NewPool(s.endpoint, pc)
	}
	return s, nil
}

// transientTransferErr is the default dispatch error classifier: a
// receiver that rejected the agent, failed authentication, a name with
// no binding, an agent the codec refuses to encode (over-deep state,
// fused code) or an explicitly permanent error will not improve with
// retrying; anything else (refused dial, reset, timeout, partition) is
// assumed transient. A load-shed (admission.ErrShed) deliberately falls
// in the transient bucket — the receiver said "later", not "never" —
// and its retry-after hint floors the backoff (internal/retry).
func transientTransferErr(err error) bool {
	switch {
	case err == nil:
		return false
	case retry.IsPermanent(err),
		errors.Is(err, transfer.ErrRejected),
		errors.Is(err, transfer.ErrAuth),
		errors.Is(err, transfer.ErrPoolClosed),
		errors.Is(err, names.ErrNotBound),
		errors.Is(err, names.ErrNoAuthority),
		errors.Is(err, agent.ErrValueTooDeep),
		errors.Is(err, agent.ErrFusedCode):
		return false
	}
	return true
}

// Name returns the server's global name.
func (s *Server) Name() names.Name { return s.cfg.Identity.Name }

// Address returns the server's endpoint address.
func (s *Server) Address() string { return s.cfg.Address }

// Registry exposes the resource registry (for installing server-side
// resources before Start).
func (s *Server) Registry() *registry.Registry { return s.reg }

// InstallResource registers a server-owned resource and publishes its
// location in the name service, enabling agents elsewhere to co-locate
// with it by name (§4's "co-location with named objects"). The binding
// is added as a replica: several servers installing the same resource
// name become alternative locations, and resolvers rank them by
// proximity.
func (s *Server) InstallResource(e registry.Entry) error {
	if err := s.reg.Register(e); err != nil {
		return err
	}
	return s.publishResource(e.Name)
}

// publishResource binds a registered resource's name to this server.
func (s *Server) publishResource(rn names.Name) error {
	return s.cfg.NameService.BindReplica(rn, names.Location{
		Address: s.cfg.Address, ServerName: s.Name(),
	})
}

// DomainDB exposes the domain database (status queries, tests).
func (s *Server) DomainDB() *domain.Database { return s.db }

// SecurityManager exposes the reference monitor (audit inspection).
func (s *Server) SecurityManager() *sandbox.Manager { return s.secmgr }

// Policy exposes the policy engine.
func (s *Server) Policy() *policy.Engine { return s.cfg.Policy }

// DecisionCacheStats reports the policy decision cache's hit/miss
// counters (observability for the binding fast path).
func (s *Server) DecisionCacheStats() (hits, misses uint64) {
	return s.cache.Stats()
}

// ResolverStats reports the name resolver's counters (cache hits,
// stale serves, forwarding-hint serves, invalidations — observability
// for the dispatch resolution fast path).
func (s *Server) ResolverStats() names.ResolverStats {
	return s.resolver.Stats()
}

// AgentStatus reports a hosted (or previously hosted) agent's status:
// the live domain database first, then the server's tombstone record.
func (s *Server) AgentStatus(n names.Name) (domain.Status, bool) {
	if st, ok := s.db.StatusOf(n); ok {
		return st, true
	}
	s.finalMu.Lock()
	defer s.finalMu.Unlock()
	st, ok := s.statuses[n]
	return st, ok
}

// setFinalStatus records an agent's terminal status.
func (s *Server) setFinalStatus(n names.Name, st domain.Status) {
	s.finalMu.Lock()
	s.statuses[n] = st
	s.finalMu.Unlock()
}

// Kill aborts a hosted agent on behalf of principal `by`: only the
// agent's owner (or the server operator, represented by the server's
// own principal) may control it. The abort takes effect at the agent's
// next VM instruction; its bindings are revoked immediately.
func (s *Server) Kill(by names.Name, agentName names.Name) error {
	s.visitMu.Lock()
	v, ok := s.visits[agentName]
	s.visitMu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchAgent, agentName)
	}
	if by != v.agent.Credentials.Owner && by != s.cfg.Identity.Name {
		return fmt.Errorf("%w: %s is not the owner", sandbox.ErrDenied, by)
	}
	if err := s.secmgr.Check(domain.ServerID, sandbox.OpAgentControl,
		sandbox.Target{Domain: v.dom, Name: agentName.String()}); err != nil {
		return err
	}
	v.meter.Abort()
	_ = s.db.RevokeAll(domain.ServerID, v.dom)
	_ = s.db.SetStatus(domain.ServerID, v.dom, domain.StatusKilled)
	return nil
}

// Charges reports the accumulated accounting charges billed to an
// owner across all completed visits.
func (s *Server) Charges(owner names.Name) uint64 {
	s.finalMu.Lock()
	defer s.finalMu.Unlock()
	return s.ledger[owner]
}

// Arrivals reports how many agents this server has hosted.
func (s *Server) Arrivals() uint64 {
	return s.stats.arrivals.Load()
}

// Describe returns the component inventory of Fig. 1, for the
// -describe flag of cmd/ajanta-server and the F1 experiment.
func (s *Server) Describe() string {
	s.visitMu.Lock()
	hosted := len(s.visits)
	s.visitMu.Unlock()
	allows, denies := s.secmgr.Stats()
	st := s.Stats()
	return fmt.Sprintf(
		"agent server %s @ %s\n"+
			"  agent environment: go, get_resource, invoke, register_resource, make_mailbox, send/recv, report, log\n"+
			"  resource registry: %d entries\n"+
			"  domain database:   %d live domains (%d hosted agents)\n"+
			"  security manager:  %d allowed / %d denied operations\n"+
			"  agent transfer:    authenticated+encrypted (ed25519 / X25519 / AES-GCM)\n"+
			"  fault tolerance:   %d dispatches, %d retries, %d parked (%d now), %d redelivered\n"+
			"  trusted modules:   %v\n",
		s.Name(), s.cfg.Address, s.reg.Len(), s.db.Count(), hosted,
		allows, denies,
		st.Dispatches, st.Retries, st.Parked, st.ParkedNow, st.Redelivered,
		s.cfg.Trusted.Names())
}

// nextHandle allocates a host handle for a bound resource within a
// visit.
func (v *visit) nextHandle(br *boundResource) vm.Value {
	v.nextH++
	v.handles[v.nextH] = br
	return vm.H(v.nextH)
}
