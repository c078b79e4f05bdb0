package server

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/agent"
	"repro/internal/domain"
	"repro/internal/loader"
	"repro/internal/names"
	"repro/internal/sandbox"
	"repro/internal/vm"
)

// This file owns agent hosting: the arrival gate (admit), local launch,
// the visit state machine (host), homecoming delivery to waiters, and
// the failure path home.

// admit is the arrival gate: credential verification ("mutual
// authentication of the agent and server"), tier admission (load
// shedding), bundle verification, and admission control. Rejections
// travel back to the sending server. Signature verdicts (through the
// verifier's cache) and the manifests of pinned bundles are computed
// once per server; every other check runs on each arrival
// (docs/PROTOCOLS.md §3.1).
func (s *Server) admit(a *agent.Agent, from names.Name) error {
	if err := a.Credentials.Verify(s.cfg.Verifier, time.Now()); err != nil {
		return fmt.Errorf("credentials: %w", err)
	}
	if a.Name != a.Credentials.AgentName {
		return errors.New("agent name does not match credentials")
	}
	// Tier admission (admission.Gate, PROTOCOLS.md §3.3) runs after the
	// owner's identity is verified — an unverified owner name must not
	// pick whose bucket to drain — and before the expensive bundle and
	// manifest work, so an overload is shed at the cheapest point. The
	// shed error carries a retry-after hint back to the sender, whose
	// retry/dead-letter machinery classifies it transient.
	ticket, err := s.gate.Admit(a.Credentials.Owner, a.Credentials.Digest())
	if err != nil {
		return err
	}
	// Any rejection below must hand back the concurrency slot the
	// ticket may hold; only a fully admitted agent carries it into the
	// visit (released when the visit terminates).
	admitted := false
	defer func() {
		if !admitted {
			ticket.Release()
		}
	}()
	if err := vm.VerifyBundle(a.Code); err != nil {
		return fmt.Errorf("code: %w", err)
	}
	// Code-integrity check (§2): when the owner pinned the bundle
	// digest, a host that patched or swapped the agent's code en route
	// is caught here.
	var pinned []byte
	if len(a.Credentials.CodeDigest) > 0 {
		digest, err := agent.BundleDigest(a.Code)
		if err != nil {
			return err
		}
		if !bytes.Equal(digest, a.Credentials.CodeDigest) {
			return errors.New("code does not match the owner-signed digest")
		}
		pinned = digest
	}
	// Manifest admission control (admission.go): reject agents whose
	// statically computed access needs exceed what this server's
	// policy would ever grant them — before any VM starts.
	if s.cfg.Admission == AdmissionEnforce {
		if err := s.checkAdmission(a, pinned); err != nil {
			s.stats.admissionRejects.Add(1)
			return err
		}
	}
	s.visitMu.Lock()
	defer s.visitMu.Unlock()
	if s.cfg.MaxAgents > 0 && len(s.visits) >= s.cfg.MaxAgents {
		return ErrCapacity
	}
	admitted = true
	a.SetHostState(ticket)
	return nil
}

// LaunchLocal submits an agent directly to this server (the path used
// by a local application, Fig. 1's "submitted to it either by a
// user-level application or by another agent server via the network").
func (s *Server) LaunchLocal(a *agent.Agent) error {
	if err := s.admit(a, s.Name()); err != nil {
		return err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.host(a)
	}()
	return nil
}

// Await registers interest in an agent's homecoming. The returned
// channel receives the agent when it completes its itinerary and is
// delivered at this server (its home site). An agent that already came
// home before anyone awaited it is handed over immediately from the
// held map — homecomings are never dropped for want of a waiter.
//
// The held check and the waiter registration must be one atomic step
// against deliverLocal's mirror-image check, so this is one of the two
// places that nest visitMu → parkMu (the documented lock order, §8.5).
func (s *Server) Await(agentName names.Name) <-chan *agent.Agent {
	ch := make(chan *agent.Agent, 1)
	s.visitMu.Lock()
	s.parkMu.Lock()
	if a, ok := s.held[agentName]; ok {
		delete(s.held, agentName)
		s.parkMu.Unlock()
		s.visitMu.Unlock()
		ch <- a
		s.stats.delivered.Add(1)
		return ch
	}
	s.waiters[agentName] = ch
	s.parkMu.Unlock()
	s.visitMu.Unlock()
	return ch
}

// host runs one agent visit end to end: domain creation, namespace
// construction, entry execution, then migration / homecoming.
func (s *Server) host(a *agent.Agent) {
	s.stats.arrivals.Add(1)

	// The admission ticket (if any) rode in from the arrival gate. Its
	// concurrency slot is held for the duration of the visit and handed
	// back on every terminal path; Release is idempotent and nil-safe,
	// so the defer is a pure backstop for early returns. Re-hosting
	// paths that bypass admit (self-dispatch) simply find no ticket.
	ticket, _ := a.TakeHostState().(*admission.Ticket)
	defer ticket.Release()

	// Homecoming: itinerary finished and no pending detour — deliver
	// to the waiting owner without creating an execution domain.
	if a.PendingEntry == "" && a.Itinerary.Done() {
		ticket.Release()
		s.deliver(a)
		return
	}

	// Domain creation (§5.3): mediated by the security manager, then
	// recorded in the domain database.
	if err := s.secmgr.Check(domain.ServerID, sandbox.OpDomainDBUpdate, sandbox.Target{Name: a.Name.String()}); err != nil {
		return
	}
	dom, err := s.db.Admit(domain.ServerID, &a.Credentials)
	if err != nil {
		return
	}
	ns, err := loader.NewNamespace(s.cfg.Trusted, a.Code, s.cfg.StrictNamespaces)
	if err != nil {
		a.Log = append(a.Log, fmt.Sprintf("%s: namespace rejected: %v", s.Name(), err))
		_ = s.db.Remove(domain.ServerID, dom)
		s.failHome(a)
		return
	}

	// A tier may cap the fuel a visit burns below the server default —
	// quota enforcement for low-trust principals (ISSUE 6 tentpole).
	fuel := s.cfg.Fuel
	if ticket != nil && ticket.Fuel > 0 && ticket.Fuel < fuel {
		fuel = ticket.Fuel
	}
	v := s.newVisit(a, dom, ns, fuel)

	s.visitMu.Lock()
	s.visits[a.Name] = v
	s.visitMu.Unlock()

	// finish ends the visit: record the terminal status, flush the
	// visit's locally batched usage into the domain database and settle
	// it into the per-owner ledger ("mechanisms ... for metering of
	// resource use and charging for such usage", §2), and tear down the
	// protection domain. It must run before the agent is dispatched or
	// delivered so observers never see a live domain for a departed
	// agent — every terminal path below (departure, homecoming, VM
	// failure, kill) calls it exactly once, so no accounting is lost
	// even when the agent afterwards fails home or is parked in the
	// dead-letter store.
	var finished bool
	finish := func(st domain.Status) {
		if finished {
			return
		}
		finished = true
		ticket.Release()
		_ = s.db.SetStatus(domain.ServerID, dom, st)
		s.setFinalStatus(a.Name, st)
		s.visitMu.Lock()
		delete(s.visits, a.Name)
		s.visitMu.Unlock()
		if total, _ := s.db.FlushUsage(domain.ServerID, dom, v.usageBatch()); total > 0 {
			s.finalMu.Lock()
			s.ledger[a.Credentials.Owner] += total
			s.finalMu.Unlock()
		}
		_ = s.db.RevokeAll(domain.ServerID, dom)
		// The visit's mailboxes die with it (§5.5's expiration of
		// agent-made grants); see newMailbox. The location goes first:
		// while the entry still holds the name no successor can
		// register it, so its bind cannot be withdrawn here.
		for _, rn := range v.mailboxes {
			s.cfg.NameService.UnbindReplica(rn, s.cfg.Address)
			_ = s.reg.Unregister(dom, rn)
		}
		if len(v.mailboxes) > 0 {
			v.mailMu.Lock()
			v.mailClosed, v.mailbox = true, nil
			v.mailMu.Unlock()
		}
		_ = s.db.Remove(domain.ServerID, dom)
	}
	defer finish(domain.StatusTerminated) // backstop; normally a no-op

	mainMod, err := v.ns.Module(a.MainModule)
	if err != nil {
		a.Log = append(a.Log, fmt.Sprintf("%s: %v", s.Name(), err))
		finish(domain.StatusFailed)
		s.failHome(a)
		return
	}

	// First arrival anywhere: evaluate module-level initializers.
	if !a.Initialized {
		if _, err := vm.Run(v.env, mainMod, "__init__"); err != nil {
			a.Log = append(a.Log, fmt.Sprintf("%s: init: %v", s.Name(), err))
			finish(domain.StatusFailed)
			s.failHome(a)
			return
		}
		a.Initialized = true
	}

	// Select the entry to run: a pending detour entry (set by go) or
	// the itinerary's current stop if it names this server.
	entry := a.PendingEntry
	a.PendingEntry = ""
	advance := false
	if entry == "" {
		if stop, ok := a.Itinerary.Current(); ok {
			for _, srv := range stop.Servers {
				if srv == s.Name() {
					entry = stop.Entry
					advance = true
					break
				}
			}
		}
	}
	if entry != "" {
		_, err = vm.Run(v.env, mainMod, entry)
		switch {
		case err == nil:
			// fall through to itinerary handling
		case errors.Is(err, errMigrate):
			// A go() detour consumes the itinerary stop that was
			// running: the agent has taken over its own routing.
			if advance {
				a.Itinerary.Advance()
			}
			a.Hops++
			finish(domain.StatusDeparted)
			s.dispatchTo(a, v.migrateDest, v.migrateEntry)
			return
		case errors.Is(err, vm.ErrAborted):
			a.Log = append(a.Log, fmt.Sprintf("%s: %s: killed", s.Name(), entry))
			finish(domain.StatusKilled)
			s.failHome(a)
			return
		default:
			a.Log = append(a.Log, fmt.Sprintf("%s: %s: %v", s.Name(), entry, err))
			finish(domain.StatusFailed)
			s.failHome(a)
			return
		}
	}
	if advance {
		a.Itinerary.Advance()
	}
	if stop, ok := a.Itinerary.Current(); ok {
		a.Hops++
		finish(domain.StatusDeparted)
		s.dispatchStop(a, stop)
		return
	}
	finish(domain.StatusTerminated)
	s.deliver(a)
}

// newVisit builds the state of one visit: the agent's protection domain
// and namespace, a fuel meter, and a VM environment over the agent's
// globals with the builtins and the server's host API installed.
func (s *Server) newVisit(a *agent.Agent, dom domain.ID, ns *loader.Namespace, fuel uint64) *visit {
	v := &visit{
		agent:   a,
		dom:     dom,
		ns:      ns,
		meter:   vm.NewMeter(fuel),
		credKey: a.Credentials.Digest(),
		handles: make(map[uint64]*boundResource),
		usage:   make(map[string]*visitUsage),
	}
	v.env = &vm.Env{
		Globals:   a.State,
		Host:      make(map[string]vm.HostFunc),
		Resolver:  ns,
		Meter:     v.meter,
		MaxFrames: vm.DefaultMaxFrames,
		Owner:     dom,
	}
	vm.InstallBuiltins(v.env)
	s.installHostAPI(v)
	return v
}

// failHome abandons the agent's remaining itinerary and sends it home
// so the owner sees the log. Any pending go() entry is cleared: a
// failed (possibly parked-then-redelivered) agent must never resume a
// stale entry function on arrival.
func (s *Server) failHome(a *agent.Agent) {
	a.PendingEntry = ""
	a.Itinerary.Abandon()
	// The tombstone left by the visit said "departed"; the departure
	// failed, so correct it (without masking killed/failed records).
	s.finalMu.Lock()
	if st, ok := s.statuses[a.Name]; !ok || st == domain.StatusDeparted {
		s.statuses[a.Name] = domain.StatusFailed
	}
	s.finalMu.Unlock()
	s.deliver(a)
}

// deliverLocal hands a homecoming agent to its waiter, or holds it for
// a future Await call. The waiter check and the held insertion are one
// atomic step against Await — the second of the two visitMu → parkMu
// nestings (§8.5).
func (s *Server) deliverLocal(a *agent.Agent) {
	s.visitMu.Lock()
	s.parkMu.Lock()
	ch, ok := s.waiters[a.Name]
	if ok {
		delete(s.waiters, a.Name)
	} else {
		s.held[a.Name] = a
	}
	s.parkMu.Unlock()
	s.visitMu.Unlock()
	if ok {
		ch <- a
		s.stats.delivered.Add(1)
	}
}
