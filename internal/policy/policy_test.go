package policy

import (
	"testing"
	"time"

	"repro/internal/cred"
	"repro/internal/keys"
	"repro/internal/names"
)

var bufMethods = []string{"get", "put", "len"}

func testCreds(t *testing.T, rights cred.RightSet) *cred.Credentials {
	t.Helper()
	reg, err := keys.NewRegistry(names.Principal("umn.edu", "ca"))
	if err != nil {
		t.Fatal(err)
	}
	owner, err := keys.NewIdentity(reg, names.Principal("umn.edu", "alice"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cred.Issue(owner, names.Agent("umn.edu", "a1"),
		names.Principal("umn.edu", "app"), rights, time.Hour, "home")
	if err != nil {
		t.Fatal(err)
	}
	return &c
}

func TestDefaultDeny(t *testing.T) {
	e := NewEngine()
	c := testCreds(t, cred.NewRightSet(cred.All))
	g := e.Decide(c, "buf", bufMethods)
	if !g.Empty() {
		t.Fatalf("empty policy granted %v", g.MethodList())
	}
}

func TestAllowByPrincipal(t *testing.T) {
	e := NewEngine()
	e.AddRule(Rule{Principal: names.Principal("umn.edu", "alice"), Resource: "buf", Methods: []string{"get"}})
	c := testCreds(t, cred.NewRightSet(cred.All))
	g := e.Decide(c, "buf", bufMethods)
	if !g.Methods["get"] || g.Methods["put"] {
		t.Fatalf("grant = %v", g.MethodList())
	}
}

// TestOwnRules: a resource's own rules grant like engine rules, only
// for the decision they are passed to, and an engine deny still
// dominates them.
func TestOwnRules(t *testing.T) {
	e := NewEngine()
	c := testCreds(t, cred.NewRightSet(cred.All))
	own := []Rule{{AnyPrincipal: true, Resource: "buf", Methods: []string{"get", "put"}}}
	if g := e.Decide(c, "buf", bufMethods, own...); !g.Methods["get"] || !g.Methods["put"] || g.Methods["len"] {
		t.Fatalf("own rules granted %v, want [get put]", g.MethodList())
	}
	if g := e.Decide(c, "buf", bufMethods); !g.Empty() {
		t.Fatalf("own rules leaked into a later decision: %v", g.MethodList())
	}
	if g := e.Decide(c, "other", bufMethods, own...); !g.Empty() {
		t.Fatalf("own rules for buf granted %v on another path", g.MethodList())
	}
	e.AddRule(Rule{AnyPrincipal: true, Resource: "buf", Methods: []string{"put"}, Deny: true})
	if g := e.Decide(c, "buf", bufMethods, own...); !g.Methods["get"] || g.Methods["put"] {
		t.Fatalf("engine deny did not dominate own allow: %v", g.MethodList())
	}
}

func TestAllowWildcardMethods(t *testing.T) {
	e := NewEngine()
	e.AddRule(Rule{AnyPrincipal: true, Resource: "buf", Methods: []string{"*"}})
	c := testCreds(t, cred.NewRightSet(cred.All))
	g := e.Decide(c, "buf", bufMethods)
	if len(g.MethodList()) != 3 {
		t.Fatalf("grant = %v, want all three", g.MethodList())
	}
}

func TestDenyDominates(t *testing.T) {
	e := NewEngine()
	e.AddRule(Rule{AnyPrincipal: true, Resource: "buf", Methods: []string{"*"}})
	e.AddRule(Rule{AnyPrincipal: true, Resource: "buf", Methods: []string{"put"}, Deny: true})
	c := testCreds(t, cred.NewRightSet(cred.All))
	g := e.Decide(c, "buf", bufMethods)
	if g.Methods["put"] {
		t.Fatal("deny rule did not dominate")
	}
	if !g.Methods["get"] || !g.Methods["len"] {
		t.Fatalf("grant = %v", g.MethodList())
	}
}

func TestGroupMembership(t *testing.T) {
	e := NewEngine()
	faculty := names.Group("umn.edu", "faculty")
	e.DefineGroup(faculty, names.Principal("umn.edu", "alice"))
	e.AddRule(Rule{Principal: faculty, Resource: "buf", Methods: []string{"get"}})
	c := testCreds(t, cred.NewRightSet(cred.All))
	if g := e.Decide(c, "buf", bufMethods); !g.Methods["get"] {
		t.Fatal("group member not granted")
	}
	// A non-member with the same policy gets nothing.
	e2 := NewEngine()
	e2.DefineGroup(faculty, names.Principal("umn.edu", "bob"))
	e2.AddRule(Rule{Principal: faculty, Resource: "buf", Methods: []string{"get"}})
	if g := e2.Decide(c, "buf", bufMethods); !g.Empty() {
		t.Fatal("non-member granted via group rule")
	}
}

func TestResourceScoping(t *testing.T) {
	e := NewEngine()
	e.AddRule(Rule{AnyPrincipal: true, Resource: "buf", Methods: []string{"get"}})
	c := testCreds(t, cred.NewRightSet(cred.All))
	if g := e.Decide(c, "other", []string{"get"}); !g.Empty() {
		t.Fatal("rule for buf leaked to other resource")
	}
	e.AddRule(Rule{AnyPrincipal: true, Resource: "*", Methods: []string{"len"}})
	if g := e.Decide(c, "other", []string{"get", "len"}); !g.Methods["len"] || g.Methods["get"] {
		t.Fatalf("wildcard resource rule wrong: %v", g.MethodList())
	}
}

func TestOwnerDelegatedRightsIntersect(t *testing.T) {
	// Server policy allows everything, but the owner only delegated
	// buf.get to the agent — the grant must honour the restriction
	// (§5.1: restrictions "enforced in addition to the access controls
	// applied by the resources themselves").
	e := NewEngine()
	e.AddRule(Rule{AnyPrincipal: true, Resource: "buf", Methods: []string{"*"}})
	c := testCreds(t, cred.NewRightSet("buf.get"))
	g := e.Decide(c, "buf", bufMethods)
	if !g.Methods["get"] || g.Methods["put"] || g.Methods["len"] {
		t.Fatalf("grant = %v, want only get", g.MethodList())
	}
}

func TestQuotaStrictestWins(t *testing.T) {
	e := NewEngine()
	e.AddRule(Rule{AnyPrincipal: true, Resource: "buf", Methods: []string{"get"},
		Quota: Quota{MaxInvocations: 100}})
	e.AddRule(Rule{AnyPrincipal: true, Resource: "buf", Methods: []string{"put"},
		Quota: Quota{MaxInvocations: 10, MaxCharge: 50}})
	c := testCreds(t, cred.NewRightSet(cred.All))
	g := e.Decide(c, "buf", bufMethods)
	if g.Quota.MaxInvocations != 10 || g.Quota.MaxCharge != 50 {
		t.Fatalf("quota = %+v", g.Quota)
	}
}

func TestTTLShortestWins(t *testing.T) {
	e := NewEngine()
	e.AddRule(Rule{AnyPrincipal: true, Resource: "buf", Methods: []string{"get"}, TTL: time.Hour})
	e.AddRule(Rule{AnyPrincipal: true, Resource: "buf", Methods: []string{"put"}, TTL: time.Minute})
	c := testCreds(t, cred.NewRightSet(cred.All))
	g := e.Decide(c, "buf", bufMethods)
	if g.Expiry.IsZero() || time.Until(g.Expiry) > 2*time.Minute {
		t.Fatalf("expiry = %v, want ~1m", g.Expiry)
	}
}

func TestSetRulesReplaces(t *testing.T) {
	e := NewEngine()
	e.AddRule(Rule{AnyPrincipal: true, Resource: "buf", Methods: []string{"*"}})
	e.SetRules(nil)
	c := testCreds(t, cred.NewRightSet(cred.All))
	if g := e.Decide(c, "buf", bufMethods); !g.Empty() {
		t.Fatal("SetRules(nil) did not clear policy")
	}
}

func TestZeroPrincipalMatchesNothing(t *testing.T) {
	e := NewEngine()
	e.AddRule(Rule{Resource: "buf", Methods: []string{"*"}}) // no principal, not AnyPrincipal
	c := testCreds(t, cred.NewRightSet(cred.All))
	if g := e.Decide(c, "buf", bufMethods); !g.Empty() {
		t.Fatal("rule with zero principal matched")
	}
}

func TestRuleString(t *testing.T) {
	r := Rule{AnyPrincipal: true, Resource: "buf", Methods: []string{"get", "put"}, Deny: true}
	if got := r.String(); got != "deny * on buf methods [get put]" {
		t.Fatalf("String() = %q", got)
	}
}
