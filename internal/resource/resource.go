// Package resource implements the paper's primary contribution: the
// proxy-based scheme for granting visiting agents protected access to
// host resources (§5.4–5.5, Figures 2, 3, 5, 7).
//
// The type structure mirrors the paper's Figure 2:
//
//	Resource (interface)        — generic queries: name, owner (Fig. 3)
//	ResourceImpl                — implements Resource (Fig. 3)
//	AccessProtocol (interface)  — GetProxy (Fig. 7)
//	Def                         — a concrete resource: ResourceImpl +
//	                              AccessProtocol + method table
//	Proxy                       — the per-agent protected interface
//	                              (Fig. 5), with isEnabled screening,
//	                              identity-based capability binding,
//	                              expiry, accounting and revocation
//
// Agents never receive references to the resource itself; GetProxy
// returns a Proxy whose restricted interface "ensures that the agent
// can only access the resource in a safe manner".
package resource

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cred"
	"repro/internal/domain"
	"repro/internal/names"
	"repro/internal/policy"
	"repro/internal/vm"
)

// Resource is the generic resource interface of Figure 3: "generic
// methods, common to all resources, e.g. queries for name/id,
// ownership, etc."
type Resource interface {
	ResourceName() names.Name
	ResourceOwner() names.Name
	Description() string
}

// ResourceImpl implements Resource; application resources embed it
// (Figure 3's ResourceImpl).
type ResourceImpl struct {
	Name  names.Name
	Owner names.Name
	Desc  string
}

// NewImpl builds the identity core of a resource. Application packages
// use this constructor instead of naming the ResourceImpl type
// directly — the concrete layout stays private to the resource/registry
// /server layers (enforced by the repolint resourceimpl rule), so it
// can grow fields without touching every resource definition in the
// tree.
func NewImpl(name, owner names.Name, desc string) ResourceImpl {
	return ResourceImpl{Name: name, Owner: owner, Desc: desc}
}

// ResourceName implements Resource.
func (r *ResourceImpl) ResourceName() names.Name { return r.Name }

// ResourceOwner implements Resource.
func (r *ResourceImpl) ResourceOwner() names.Name { return r.Owner }

// Description implements Resource.
func (r *ResourceImpl) Description() string { return r.Desc }

// Method is one callable operation of a resource. Arguments and results
// use VM values so resources are uniformly invocable from agent code;
// Go-native callers use the same signature. An agent's invoke passes
// args on from its host call, so args is borrowed under the
// vm.HostFunc contract: a method may keep the Values but never the
// slice.
type Method func(args []vm.Value) (vm.Value, error)

// Request carries the context GetProxy needs: the requesting agent's
// protection domain, its verified credentials (fetched from the domain
// database by the agent environment), the server policy to consult, and
// the evaluation time.
type Request struct {
	Caller domain.ID
	Creds  *cred.Credentials
	Policy *policy.Engine
	Now    time.Time
	// Cache, when set, memoizes the policy decision per
	// (credentials digest, resource path) under Stamp: a repeat binding
	// with an unchanged policy/registry configuration skips the rule
	// walk entirely. Stamp must carry the epochs of the configuration
	// the caller read — a stale stamp is a cache miss, never a wrong
	// grant.
	Cache *policy.DecisionCache
	Stamp policy.Stamp
	// CredKey is Creds.Digest(), when the caller has it precomputed
	// (the server computes it once per visit); zero means GetProxy
	// derives it on the spot.
	CredKey cred.Digest
}

// AccessProtocol is Figure 7: "the getProxy method returns a proxy
// object". Authorization is done by the resource, which embeds its
// security policy here.
type AccessProtocol interface {
	GetProxy(req Request) (*Proxy, error)
}

// Def is a concrete application-defined resource: identity, the method
// table, per-method accounting costs, and the policy-driven GetProxy.
// It is the runtime equivalent of writing BufferImpl implements Buffer,
// AccessProtocol (Figure 4) for resources invoked through the VM.
type Def struct {
	ResourceImpl
	// Path is the policy/rights path of the resource (the <resource>
	// part of "resource.method" rights).
	Path string
	// Methods is the full method table of the resource.
	Methods map[string]Method
	// Costs optionally assigns accounting charges per method
	// ("possibly assigning different costs to different methods",
	// §5.5); methods without an entry cost DefaultCost.
	Costs map[string]uint64
	// MeterElapsed additionally meters wall-clock execution time
	// ("or by metering the elapsed time for method execution").
	MeterElapsed bool
	// Controllers are the protection domains allowed to invoke the
	// proxy's privileged control methods (revocation etc.); the
	// server domain is always allowed.
	Controllers []domain.ID
	// Rules are the resource's own policy rules, decided together with
	// the server policy's (an agent's mailbox carries its ACL here, so
	// registering it neither copies the global rule list nor bumps the
	// policy epoch). They are fixed once the Def is registered: a
	// change goes through registry Replace, whose epoch bump
	// invalidates cached decisions.
	Rules []policy.Rule
	// OnUse, when set, is called after each successful proxy
	// invocation (the server wires this to the domain database's
	// usage records).
	OnUse func(caller domain.ID, method string, charge uint64)
}

// DefaultCost is charged for methods without an explicit cost.
const DefaultCost uint64 = 1

// ErrNoAccess is returned by GetProxy when policy yields an empty grant.
var ErrNoAccess = errors.New("resource: access denied by policy")

// MethodNames returns the method table's names (unsorted).
func (d *Def) MethodNames() []string {
	out := make([]string, 0, len(d.Methods))
	for m := range d.Methods {
		out = append(out, m)
	}
	return out
}

// GetProxy implements AccessProtocol. It consults the server policy
// with the caller's credentials and, "if permitted by the embedded
// security policy", creates an appropriately restricted proxy bound to
// the requesting agent's protection domain.
func (d *Def) GetProxy(req Request) (*Proxy, error) {
	if req.Creds == nil {
		return nil, fmt.Errorf("%w: no credentials", ErrNoAccess)
	}
	if req.Policy == nil {
		return nil, fmt.Errorf("%w: no policy engine", ErrNoAccess)
	}
	grant, cached := policy.Grant{}, false
	key := req.CredKey
	if req.Cache != nil {
		if key.IsZero() {
			key = req.Creds.Digest()
		}
		grant, cached = req.Cache.Get(key, d.Path, req.Stamp)
	}
	if !cached {
		grant = req.Policy.Decide(req.Creds, d.Path, d.MethodNames(), d.Rules...)
		if req.Cache != nil {
			req.Cache.Put(key, d.Path, req.Stamp, grant)
		}
	}
	if grant.Empty() {
		return nil, fmt.Errorf("%w: %s for %s", ErrNoAccess, d.Path, req.Creds.AgentName)
	}
	// The proxy never outlives the agent's credentials; policy TTL may
	// shorten further.
	expiry := req.Creds.EffectiveExpiry()
	if !grant.Expiry.IsZero() && grant.Expiry.Before(expiry) {
		expiry = grant.Expiry
	}
	return newProxy(d, req.Caller, grant, expiry), nil
}
