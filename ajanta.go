// Package ajanta is the public API of this reproduction of "Protected
// Resource Access for Mobile Agent-based Distributed Computing"
// (Tripathi & Karnik, ICPP 1998) — the Ajanta mobile agent system's
// security architecture, implemented in Go.
//
// The library provides:
//
//   - agent servers (Fig. 1) hosting mobile agents written in ASL, a
//     small agent language compiled to a verified, metered bytecode VM;
//   - the paper's proxy-based protected resource access (§5.5):
//     policy-driven proxies with per-method enabling, identity-based
//     capability binding, expiry, usage accounting, and selective
//     revocation;
//   - tamperproof credentials with cascaded delegation (§5.2);
//   - a secure server-to-server transfer protocol (mutual
//     authentication, encryption, integrity, replay defence);
//   - per-agent namespaces with trusted-module shadowing (the class
//     loader analogue, §5.3) and a security-manager reference monitor.
//
// Quickstart:
//
//	p, _ := ajanta.NewPlatform("example.org")
//	defer p.StopAll()
//	srv, _ := p.StartServer("s1", "s1:7000", ajanta.ServerConfig{
//	    Rules: []ajanta.Rule{{AnyPrincipal: true, Resource: "counter", Methods: []string{"*"}}},
//	})
//	_ = ajanta.InstallResource(srv, ajanta.CounterResource(
//	    ajanta.ResourceName("example.org", "counter"), "counter"))
//	home, _ := p.StartServer("home", "home:7000", ajanta.ServerConfig{})
//	owner, _ := p.NewOwner("alice")
//	a, _ := p.BuildAgent(ajanta.AgentSpec{
//	    Owner: owner, Name: "hello",
//	    Source: `module hello
//	func main() {
//	  var c = get_resource("ajanta:resource:example.org/counter")
//	  invoke(c, "add", 41)
//	  report(invoke(c, "add", 1))
//	}`,
//	    Itinerary: ajanta.Tour("main", srv.Name()),
//	    Home:      home,
//	})
//	back, _ := p.LaunchAndWait(home, a, 10*time.Second)
//	fmt.Println(back.Results) // [42]
//
// See examples/ for complete programs and DESIGN.md for the
// paper-to-module map.
package ajanta

import (
	"time"

	"repro/internal/admission"
	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/cred"
	"repro/internal/domain"
	"repro/internal/keys"
	"repro/internal/names"
	"repro/internal/policy"
	"repro/internal/resource"
	"repro/internal/retry"
	"repro/internal/server"
	"repro/internal/transfer"
	"repro/internal/vm"
	"repro/internal/vm/analysis"
)

// Core platform types.
type (
	// Platform wires CA, name service, network and servers together.
	Platform = core.Platform
	// ServerConfig tunes one agent server.
	ServerConfig = core.ServerConfig
	// AgentSpec describes an agent to build from ASL source.
	AgentSpec = core.AgentSpec
	// Server is one agent server (Fig. 1).
	Server = server.Server
	// Agent is a mobile agent: code + state + credentials + itinerary.
	Agent = agent.Agent
	// Itinerary is the agent's planned tour.
	Itinerary = agent.Itinerary
	// Stop is one itinerary entry with alternative servers.
	Stop = agent.Stop
	// Name is a global, location-independent identifier.
	Name = names.Name
	// Identity is a certified principal (name + keys + certificate).
	Identity = keys.Identity
	// Rule is one policy clause of a server's security policy.
	Rule = policy.Rule
	// Quota bounds resource usage per binding.
	Quota = policy.Quota
	// Tier is one admission tier: per-principal rate limit,
	// concurrent-visit cap and fuel quota applied at the arrival gate
	// (docs/PROTOCOLS.md §3.3).
	Tier = policy.Tier
	// TierAssignment maps a principal (or group, or everyone) to a
	// tier by name.
	TierAssignment = policy.TierAssignment
	// PolicyDocument is a parsed policy file: rules plus admission
	// tier configuration (ParsePolicy).
	PolicyDocument = policy.Document
	// RightSet is a set of delegated rights carried in credentials.
	RightSet = cred.RightSet
	// Right is one "resource.method" permission.
	Right = cred.Right
	// ResourceDef is a concrete protected resource.
	ResourceDef = resource.Def
	// ResourceMethod is one callable resource operation. Its args
	// slice is borrowed from the invoking agent's VM stack: a method
	// may keep the Values but never the slice.
	ResourceMethod = resource.Method
	// Proxy is the per-agent protected interface to a resource.
	Proxy = resource.Proxy
	// Value is a VM value (agent state and method arguments).
	Value = vm.Value
	// Credentials are an agent's tamperproof identity/rights record.
	Credentials = cred.Credentials
	// PolicyEngine evaluates a server's security policy.
	PolicyEngine = policy.Engine
	// DomainID identifies a protection domain within one server.
	DomainID = domain.ID
	// ProxyRequest carries the context for a GetProxy upcall, for
	// embedders building custom resource servers on the Go API.
	ProxyRequest = resource.Request
	// ProxyAccount is a snapshot of a proxy's usage accounting.
	ProxyAccount = resource.Account
	// RetryPolicy tunes dispatch retry/backoff (ServerConfig.Retry).
	RetryPolicy = retry.Policy
	// ServerStats is a snapshot of a server's fault-tolerance counters.
	ServerStats = server.Stats
	// ChannelPoolConfig tunes the per-destination pool of persistent
	// authenticated transfer channels (ServerConfig.ChannelPool).
	ChannelPoolConfig = transfer.PoolConfig
	// ChannelPoolStats is a snapshot of a server's outbound channel
	// pool counters (Server.ChannelPoolStats).
	ChannelPoolStats = transfer.PoolStats
	// AdmissionMode selects whether arriving agents' access manifests
	// are enforced at admission (ServerConfig.Admission).
	AdmissionMode = server.AdmissionMode
	// AccessManifest is an agent bundle's statically computed
	// capability surface (see docs/PROTOCOLS.md §3.1).
	AccessManifest = analysis.Manifest
)

// Admission modes (ServerConfig.Admission).
const (
	// AdmissionOff hosts any agent whose credentials and code verify;
	// access control happens only at resource binding time.
	AdmissionOff = server.AdmissionOff
	// AdmissionEnforce additionally requires, before any VM starts,
	// that the agent's access manifest is analyzable, covered by its
	// declaration, and admissible under this server's policy.
	AdmissionEnforce = server.AdmissionEnforce
)

// ServerDomain is the server's own protection domain ID.
const ServerDomain = domain.ServerID

// NewPolicyEngine returns an empty (default-deny) policy engine.
func NewPolicyEngine() *PolicyEngine { return policy.NewEngine() }

// ParseRules reads the textual policy format (see docs/PROTOCOLS.md and
// internal/policy.ParseRules):
//
//	allow|deny <subject> <resource> <methods> [quota=N] [charge=N] [ttl=DUR]
//
// It rejects files containing tier configuration; use ParsePolicy for
// the full format.
func ParseRules(text string) ([]Rule, error) { return policy.ParseRules(text) }

// ParsePolicy reads the full textual policy format — rules plus
// admission tiers and assignments (docs/PROTOCOLS.md §5):
//
//	allow|deny <subject> <resource> <methods> [quota=N] [charge=N] [ttl=DUR]
//	tier <name> [rate=R] [burst=N] [concurrent=N] [fuel=N]
//	assign <subject> <tier-name>
func ParsePolicy(text string) (*PolicyDocument, error) { return policy.ParsePolicy(text) }

// ErrShed marks an arrival refused by the admission gate because the
// owner's tier is over its rate or concurrency limit. Sheds are
// transient to the dispatch retry machinery and carry a retry-after
// hint (docs/PROTOCOLS.md §3.3).
var ErrShed = admission.ErrShed

// NewCA creates a certification-authority registry for standalone
// (non-Platform) embedding.
func NewCA(authority string) (*keys.Registry, error) {
	return keys.NewRegistry(names.Principal(authority, "ca"))
}

// NewIdentity certifies a fresh principal under a CA.
func NewIdentity(ca *keys.Registry, n Name, validFor time.Duration) (Identity, error) {
	return keys.NewIdentity(ca, n, validFor)
}

// IssueCredentials creates owner-signed agent credentials (§5.2).
func IssueCredentials(owner Identity, agentName Name, rights RightSet, validFor time.Duration, homeSite string) (Credentials, error) {
	return cred.Issue(owner, agentName, owner.Name, rights, validFor, homeSite)
}

// NewPlatform creates a platform over the in-memory simulated network.
func NewPlatform(authority string) (*Platform, error) { return core.NewPlatform(authority) }

// NewTCPPlatform creates a platform whose servers use real TCP.
func NewTCPPlatform(authority string) (*Platform, error) { return core.NewTCPPlatform(authority) }

// NewTCPPlatformFromCA creates a TCP platform that joins an existing
// deployment by importing exported CA state (see Platform.CA.Export).
// Processes sharing CA state trust each other's certificates, so agents
// can migrate between them.
func NewTCPPlatformFromCA(authority string, caData []byte) (*Platform, error) {
	reg, err := keys.ImportRegistry(caData)
	if err != nil {
		return nil, err
	}
	return core.NewTCPPlatformWithCA(authority, reg), nil
}

// InstallResource registers a server-owned resource (Fig. 6 step 1).
func InstallResource(s *Server, def *ResourceDef) error { return core.InstallResource(s, def) }

// CounterResource builds the demo counter resource.
func CounterResource(rn Name, path string) *ResourceDef { return core.CounterResource(rn, path) }

// QuoteResource builds a price-quote service resource.
func QuoteResource(rn Name, path string, prices map[string]int64) *ResourceDef {
	return core.QuoteResource(rn, path, prices)
}

// RecordStoreResource builds a filterable dataset resource.
func RecordStoreResource(rn Name, path string, scores []int64, payload string) *ResourceDef {
	return core.RecordStoreResource(rn, path, scores, payload)
}

// Tour builds a simple one-server-per-stop itinerary.
func Tour(entry string, servers ...Name) Itinerary { return agent.Sequence(entry, servers...) }

// Rights builds a RightSet from "resource.method" strings.
func Rights(rs ...Right) RightSet { return cred.NewRightSet(rs...) }

// AllRights delegates everything (the default for trusted launches).
func AllRights() RightSet { return cred.NewRightSet(cred.All) }

// Name constructors.
func ServerName(authority, path string) Name   { return names.Server(authority, path) }
func AgentName(authority, path string) Name    { return names.Agent(authority, path) }
func ResourceName(authority, path string) Name { return names.Resource(authority, path) }

// Value constructors for resource methods and inspecting results.
func Int(i int64) Value            { return vm.I(i) }
func Str(s string) Value           { return vm.S(s) }
func Bool(b bool) Value            { return vm.B(b) }
func List(vs ...Value) Value       { return vm.L(vs...) }
func Nil() Value                   { return vm.Nil() }
func Map(m map[string]Value) Value { return vm.M(m) }
