package server

import (
	"repro/internal/domain"
	"repro/internal/names"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/resource"
	"repro/internal/sandbox"
	"repro/internal/vm"
)

// This file is the server's single resource-access path: every caller —
// the VM host calls (get_resource / invoke / install_resource /
// make_mailbox), the local API, and the examples driving a server — goes
// through bindResource, invokeProxy and installAgentResource. The
// Fig. 6 protocol steps and the accounting/ledger plumbing live here
// once, instead of being restated per host call.

// bindResource runs steps 2–5 of the Fig. 6 binding protocol for a
// hosted agent: registry lookup (step 3), the GetProxy upcall under the
// agent's verified credentials (step 4), and the domain-database binding
// record. The policy decision is memoized in the server's decision
// cache, stamped with the policy and registry epochs read at bind time —
// any later rule or registry change silently invalidates the entry.
func (s *Server) bindResource(v *visit, rn names.Name) (*boundResource, error) {
	// One registry snapshot pins both the entry and the epoch the
	// decision stamp uses, so the cached grant can never be filed under
	// an epoch newer than the table it was computed from.
	snap := s.reg.Snapshot()
	entry, err := snap.Lookup(rn) // step 3
	if err != nil {
		return nil, err
	}
	creds, err := s.db.CredentialsOf(v.dom) // getProxy's domain-database query
	if err != nil {
		return nil, err
	}
	// Read the policy epoch before the decision: a mutation racing the
	// bind at worst produces a stamp that immediately misses, never a
	// cached grant from a newer configuration under an older stamp.
	stamp := policy.Stamp{Policy: s.cfg.Policy.Epoch(), Registry: snap.Epoch()}
	proxy, err := entry.AP.GetProxy(resource.Request{ // step 4 (upcall)
		Caller:  v.dom,
		Creds:   creds,
		Policy:  s.cfg.Policy,
		Cache:   s.cache,
		Stamp:   stamp,
		CredKey: v.credKey, // digest computed once per visit, not per bind
	})
	if err != nil {
		return nil, err
	}
	// Record the binding in the domain database (§5.3: "if the agent is
	// currently granted access to any server resources, then information
	// about the binding objects is also maintained here").
	_ = s.db.AddBinding(domain.ServerID, v.dom, &domain.Binding{
		ResourcePath: proxy.Path(),
		Revoker:      func() { _ = proxy.Revoke(domain.ServerID) },
	})
	return &boundResource{proxy: proxy, usage: v.usageFor(proxy.Path())}, nil
}

// invokeProxy is step 6: access the resource through the proxy, which
// holds every protection check, then settle the accounting charge into
// the visit's local usage record — two uncontended atomic adds, no
// domain-database lock. The batch is flushed into the database (and,
// via the per-owner ledger, the paper's electronic-commerce
// requirement) once, when the visit finishes.
func (s *Server) invokeProxy(v *visit, br *boundResource, method string, args []vm.Value) (vm.Value, error) {
	out, charge, err := br.proxy.InvokeMetered(v.dom, method, args)
	if err == nil {
		br.usage.invocations.Add(1)
		br.usage.charge.Add(charge)
	}
	return out, err
}

// installAgentResource registers an agent-provided resource (Fig. 6
// step 1, performed by an agent: §5.5's dynamic extension of server
// capabilities). Registration is a mediated operation; the entry is
// owned by the installing agent's domain and survives its departure.
// The entry must claim a policy path no other entry holds (not empty,
// not "*"), checked and registered in one registry step: rules are keyed
// by path, so an agent's rules for its own resource must not match the
// host's resources. Any accompanying policy rules are added only after
// the install succeeded, so a rejected registration leaves no dangling
// grants.
func (s *Server) installAgentResource(v *visit, rn names.Name, def *resource.Def, rules ...policy.Rule) error {
	if err := s.secmgr.Check(v.dom, sandbox.OpRegistryRegister,
		sandbox.Target{Domain: v.dom, Name: rn.String()}); err != nil {
		return err
	}
	if err := s.reg.RegisterExclusive(registry.Entry{
		Name:           rn,
		Resource:       def,
		AP:             def,
		OwnerDomain:    v.dom,
		OwnerPrincipal: v.agent.Credentials.Owner,
	}); err != nil {
		return err
	}
	if err := s.publishResource(rn); err != nil {
		return err
	}
	for _, r := range rules {
		s.cfg.Policy.AddRule(r)
	}
	return nil
}
