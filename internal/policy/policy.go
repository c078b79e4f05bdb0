// Package policy implements server-side security policies (§5.2: "The
// rights assigned usually depend on the agent's identity ... and are
// determined by consulting a security policy"). The design follows the
// paper's server-oriented view of policy enforcement: each server owns
// its policy; there is no central authority.
//
// A policy is an ordered list of rules. Each rule matches on the
// requesting agent's owner (directly or through group membership), on
// the resource being requested, and yields a grant or a denial. The
// effective grant for a request is the union of all matching allow
// rules, minus all matching deny rules, intersected with the rights the
// agent's credentials actually delegate to it (owner-imposed
// restrictions are enforced *in addition to* resource policies, §5.1).
package policy

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cred"
	"repro/internal/names"
)

// Quota bounds resource usage for one binding (Telescript-style permits,
// which the paper cites approvingly).
type Quota struct {
	// MaxInvocations caps the number of proxy method calls; 0 means
	// unlimited.
	MaxInvocations uint64
	// MaxCharge caps the accumulated accounting charge; 0 = unlimited.
	MaxCharge uint64
}

// Grant is the outcome of a policy decision: which methods of the
// resource the agent may invoke, under what quota, until when.
type Grant struct {
	// Methods maps method name -> allowed. Only listed methods are
	// enabled on the proxy; everything else is disabled.
	Methods map[string]bool
	Quota   Quota
	// Expiry is the proxy expiration time; zero means the credential
	// expiry governs alone.
	Expiry time.Time
}

// Empty reports whether the grant enables no methods at all.
func (g Grant) Empty() bool { return len(g.Methods) == 0 }

// MethodList returns the enabled methods in sorted order.
func (g Grant) MethodList() []string {
	out := make([]string, 0, len(g.Methods))
	for m, ok := range g.Methods {
		if ok {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}

// Rule is one policy clause.
type Rule struct {
	// Principal matches the agent's owner: an exact principal name,
	// a group name (expanded via the engine's group table), or the
	// wildcard "*". The empty Name matches nothing.
	Principal names.Name
	// AnyPrincipal, when true, matches every owner (wildcard).
	AnyPrincipal bool
	// Resource matches the resource path within this server; "*"
	// matches all resources.
	Resource string
	// Methods are granted (or denied) by this rule; "*" = all the
	// resource's methods.
	Methods []string
	// Deny inverts the rule: matching methods are stripped from the
	// grant even if another rule allowed them. Deny rules dominate.
	Deny bool
	// Quota applies when this (allow) rule contributes to the grant;
	// the strictest matching quota wins.
	Quota Quota
	// TTL bounds proxy lifetime when this rule contributes; the
	// shortest matching TTL wins. Zero = no bound from this rule.
	TTL time.Duration
}

// Tier is one admission class: the ingress limits a server applies to
// agents of the principals assigned to it (internal/admission enforces
// them at the arrival gate). Tiers ride in the same copy-on-write
// generations as rules, so a tier change propagates epoch-style — the
// admit path reads the current snapshot lock-free and in-flight
// admissions never block on a reload.
type Tier struct {
	// Name identifies the tier in policy files and shed responses.
	Name string
	// Rate is the sustained admission rate (agents/second) allowed per
	// principal key; 0 means unlimited.
	Rate float64
	// Burst is how many admissions may arrive back-to-back before the
	// rate bites; 0 means a burst of max(1, Rate).
	Burst float64
	// MaxConcurrent caps simultaneously hosted visits per principal
	// key; 0 means unlimited.
	MaxConcurrent int
	// Fuel, when non-zero, caps the per-visit instruction budget below
	// the server default — a resource quota for low tiers.
	Fuel uint64
}

// TierAssignment maps a subject to a tier by name. Assignments are
// ordered; the first match wins, so specific principals can be listed
// before a wildcard catch-all.
type TierAssignment struct {
	// Principal matches the agent's owner directly or via group
	// membership (KindGroup names expand through the group table).
	Principal names.Name
	// AnyPrincipal, when true, matches every owner.
	AnyPrincipal bool
	// Tier names the assigned tier.
	Tier string
}

// ruleSet is one immutable published generation of a policy: rules in
// order, the group table, and the admission-tier configuration.
// Decisions read a whole generation atomically, never a half-applied
// mutation.
type ruleSet struct {
	rules   []Rule
	groups  map[names.Name][]names.Name // group -> members
	tiers   map[string]Tier             // tier name -> definition
	assigns []TierAssignment            // ordered; first match wins
}

// Engine evaluates rules. It is safe for concurrent use: decisions are
// lock-free reads of a copy-on-write snapshot; mutators (AddRule,
// SetRules, DefineGroup) copy the current generation under a writer
// mutex, publish the successor and bump the policy epoch.
type Engine struct {
	mu    sync.Mutex // serializes writers only
	snap  atomic.Pointer[ruleSet]
	epoch atomic.Uint64
}

// NewEngine returns an engine with no rules (default deny).
func NewEngine() *Engine {
	e := &Engine{}
	e.snap.Store(&ruleSet{
		groups: make(map[names.Name][]names.Name),
		tiers:  make(map[string]Tier),
	})
	return e
}

// Epoch returns the policy's mutation epoch. It bumps on every rule or
// group change; decisions cached under an older epoch are stale.
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// publish installs a new generation; the caller holds e.mu.
func (e *Engine) publish(rs *ruleSet) {
	e.snap.Store(rs)
	e.epoch.Add(1)
}

// mutate builds the successor generation from a copy of the current one.
func (e *Engine) mutate(f func(rs *ruleSet)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.snap.Load()
	rs := &ruleSet{
		rules:   append([]Rule(nil), cur.rules...),
		groups:  make(map[names.Name][]names.Name, len(cur.groups)),
		tiers:   make(map[string]Tier, len(cur.tiers)),
		assigns: append([]TierAssignment(nil), cur.assigns...),
	}
	for g, ms := range cur.groups {
		rs.groups[g] = ms
	}
	for n, t := range cur.tiers {
		rs.tiers[n] = t
	}
	f(rs)
	e.publish(rs)
}

// AddRule appends a rule. Policies "can be dynamically modified by
// their owners" (§5.1), hence the mutator rather than a frozen config.
func (e *Engine) AddRule(r Rule) {
	e.mutate(func(rs *ruleSet) { rs.rules = append(rs.rules, r) })
}

// SetRules replaces the whole rule list.
func (e *Engine) SetRules(rules []Rule) {
	e.mutate(func(rs *ruleSet) { rs.rules = append([]Rule(nil), rules...) })
}

// DefineGroup sets the membership of a group ("a set of principals may
// be aggregated together in a group to represent a common role", §2).
func (e *Engine) DefineGroup(group names.Name, members ...names.Name) {
	e.mutate(func(rs *ruleSet) {
		rs.groups[group] = append([]names.Name(nil), members...)
	})
}

// DefineTier installs (or replaces) a tier definition.
func (e *Engine) DefineTier(t Tier) {
	e.mutate(func(rs *ruleSet) { rs.tiers[t.Name] = t })
}

// AssignTier appends a tier assignment (first match wins, so order
// specific subjects before wildcards).
func (e *Engine) AssignTier(a TierAssignment) {
	e.mutate(func(rs *ruleSet) { rs.assigns = append(rs.assigns, a) })
}

// SetTierConfig replaces the whole tier configuration — definitions and
// assignments — in one published generation, so a hot reload can never
// expose a half-old half-new admission policy.
func (e *Engine) SetTierConfig(tiers []Tier, assigns []TierAssignment) {
	e.mutate(func(rs *ruleSet) {
		rs.tiers = make(map[string]Tier, len(tiers))
		for _, t := range tiers {
			rs.tiers[t.Name] = t
		}
		rs.assigns = append([]TierAssignment(nil), assigns...)
	})
}

// TierFor resolves the admission tier for an owner principal: the first
// matching assignment whose tier is defined. Like Decide, it is a
// lock-free read of the current snapshot — the admission gate calls it
// per arrival — and a concurrent tier reload is seen either entirely or
// not at all. ok is false when no assignment matches (untiered owners
// are admitted without limits).
func (e *Engine) TierFor(owner names.Name) (Tier, bool) {
	rs := e.snap.Load()
	for _, a := range rs.assigns {
		if !a.AnyPrincipal {
			if a.Principal.IsZero() {
				continue
			}
			if a.Principal != owner &&
				!(a.Principal.Kind == names.KindGroup && rs.memberOf(owner, a.Principal)) {
				continue
			}
		}
		if t, ok := rs.tiers[a.Tier]; ok {
			return t, true
		}
	}
	return Tier{}, false
}

// memberOf reports whether p is in group (non-recursive; the paper's
// groups are flat roles).
func (rs *ruleSet) memberOf(p, group names.Name) bool {
	for _, m := range rs.groups[group] {
		if m == p {
			return true
		}
	}
	return false
}

// matches reports whether rule r applies to owner and resourcePath.
func (rs *ruleSet) matches(r Rule, owner names.Name, resourcePath string) bool {
	if r.Resource != "*" && r.Resource != resourcePath {
		return false
	}
	if r.AnyPrincipal {
		return true
	}
	if r.Principal.IsZero() {
		return false
	}
	if r.Principal == owner {
		return true
	}
	return r.Principal.Kind == names.KindGroup && rs.memberOf(owner, r.Principal)
}

// Decide computes the grant for an agent (identified by its verified
// credentials) requesting the resource at resourcePath whose full method
// set is allMethods. own are the resource's own rules (an agent's
// mailbox carries its ACL in its registry entry, not in the engine):
// they are evaluated together with the engine's rules, so a global deny
// still dominates them. The result is restricted by the delegated rights
// in the credentials: a right "path.m" (or a wildcard implying it) must
// be present for method m to survive.
func (e *Engine) Decide(c *cred.Credentials, resourcePath string, allMethods []string, own ...Rule) Grant {
	rs := e.snap.Load()

	allowed := make(map[string]bool)
	denied := make(map[string]bool)
	var quota Quota
	var ttl time.Duration

	expand := func(ms []string) []string {
		for _, m := range ms {
			if m == "*" {
				return allMethods
			}
		}
		return ms
	}

	for _, rules := range [2][]Rule{rs.rules, own} {
		for _, r := range rules {
			if !rs.matches(r, c.Owner, resourcePath) {
				continue
			}
			for _, m := range expand(r.Methods) {
				if r.Deny {
					denied[m] = true
				} else {
					allowed[m] = true
				}
			}
			if !r.Deny {
				quota = strictest(quota, r.Quota)
				if r.TTL > 0 && (ttl == 0 || r.TTL < ttl) {
					ttl = r.TTL
				}
			}
		}
	}

	g := Grant{Methods: make(map[string]bool)}
	for m := range allowed {
		if denied[m] {
			continue
		}
		// Owner-imposed restriction: the agent's delegated rights
		// must also permit this method (§5.1 third bullet).
		if !c.Permits(cred.Right(resourcePath + "." + m)) {
			continue
		}
		g.Methods[m] = true
	}
	g.Quota = quota
	if ttl > 0 {
		g.Expiry = time.Now().Add(ttl)
	}
	return g
}

// AllowsWildcard reports whether this policy could grant the agent
// identified by c access to a resource whose name is not known
// statically. The admission check (internal/server) calls this for
// access-manifest entries widened to "*": a get_resource target the
// analyzer could not resolve is admissible only when some allow rule
// with Resource "*" matches the agent's owner. Admission stays
// fail-closed — the per-binding Decide check still governs the actual
// access at run time.
func (e *Engine) AllowsWildcard(c *cred.Credentials) bool {
	rs := e.snap.Load()
	for _, r := range rs.rules {
		if !r.Deny && r.Resource == "*" && rs.matches(r, c.Owner, "*") {
			return true
		}
	}
	return false
}

// strictest combines two quotas, taking the tighter bound per field
// (0 = unbounded).
func strictest(a, b Quota) Quota {
	pick := func(x, y uint64) uint64 {
		switch {
		case x == 0:
			return y
		case y == 0:
			return x
		case x < y:
			return x
		default:
			return y
		}
	}
	return Quota{
		MaxInvocations: pick(a.MaxInvocations, b.MaxInvocations),
		MaxCharge:      pick(a.MaxCharge, b.MaxCharge),
	}
}

// String renders the rule for logs.
func (r Rule) String() string {
	who := "nobody"
	switch {
	case r.AnyPrincipal:
		who = "*"
	case !r.Principal.IsZero():
		who = r.Principal.String()
	}
	verb := "allow"
	if r.Deny {
		verb = "deny"
	}
	return fmt.Sprintf("%s %s on %s methods [%s]", verb, who, r.Resource, strings.Join(r.Methods, " "))
}
