package server

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/names"
	"repro/internal/policy"
	"repro/internal/vm"
)

// Host-call errors surfaced to agent code as aborted executions.
var (
	ErrBadArg    = errors.New("server: bad host-call argument")
	ErrBadHandle = errors.New("server: invalid resource handle")
)

// installHostAPI wires the agent environment primitives (§4) into a
// visit's VM environment. Every call runs on the agent's own activity —
// the paper notes for Fig. 6 that "it is the requesting agent's thread
// which is executing these methods" — and the visit's domain ID flows
// into every privileged operation, so the security manager and proxies
// always know the calling protection domain.
func (s *Server) installHostAPI(v *visit) {
	host := v.env.Host
	a := v.agent

	need := func(args []vm.Value, n int, name string) error {
		if len(args) != n {
			return fmt.Errorf("%w: %s wants %d args, got %d", ErrBadArg, name, n, len(args))
		}
		return nil
	}
	str := func(args []vm.Value, i int, name string) (string, error) {
		if args[i].Kind != vm.KindStr {
			return "", fmt.Errorf("%w: %s arg %d must be str", ErrBadArg, name, i)
		}
		return args[i].Str, nil
	}

	// --- identity and journey queries -----------------------------

	host["agent_name"] = func(args []vm.Value) (vm.Value, error) {
		return vm.S(a.Name.String()), nil
	}
	host["owner_name"] = func(args []vm.Value) (vm.Value, error) {
		return vm.S(a.Credentials.Owner.String()), nil
	}
	host["server_name"] = func(args []vm.Value) (vm.Value, error) {
		return vm.S(s.Name().String()), nil
	}
	host["hops"] = func(args []vm.Value) (vm.Value, error) {
		return vm.I(int64(a.Hops)), nil
	}

	// --- monitoring and control of other agents (§4) ----------------
	//
	// "Other primitives provided by the agent server include ...
	// monitoring the status of child agents, issuing control commands
	// to them." Status queries are open; control is mediated: the
	// server's Kill enforces that only the same owner may control an
	// agent, so one user's agents can manage each other but nobody
	// else's.

	host["agent_status"] = func(args []vm.Value) (vm.Value, error) {
		if err := need(args, 1, "agent_status"); err != nil {
			return vm.Nil(), err
		}
		nameStr, err := str(args, 0, "agent_status")
		if err != nil {
			return vm.Nil(), err
		}
		an, err := names.Parse(nameStr)
		if err != nil {
			return vm.Nil(), fmt.Errorf("%w: agent name: %v", ErrBadArg, err)
		}
		st, ok := s.AgentStatus(an)
		if !ok {
			return vm.Nil(), nil
		}
		return vm.S(string(st)), nil
	}

	host["kill_agent"] = func(args []vm.Value) (vm.Value, error) {
		if err := need(args, 1, "kill_agent"); err != nil {
			return vm.Nil(), err
		}
		nameStr, err := str(args, 0, "kill_agent")
		if err != nil {
			return vm.Nil(), err
		}
		an, err := names.Parse(nameStr)
		if err != nil {
			return vm.Nil(), fmt.Errorf("%w: agent name: %v", ErrBadArg, err)
		}
		// The kill is issued under the calling agent's owner; the
		// server's ownership check decides.
		if err := s.Kill(a.Credentials.Owner, an); err != nil {
			return vm.Nil(), err
		}
		return vm.B(true), nil
	}

	// --- reporting -------------------------------------------------

	host["log"] = func(args []vm.Value) (vm.Value, error) {
		if err := need(args, 1, "log"); err != nil {
			return vm.Nil(), err
		}
		if err := args[0].CheckDepth(); err != nil {
			return vm.Nil(), err
		}
		a.Log = append(a.Log, fmt.Sprintf("%s: %s", s.Name(), args[0].Text()))
		return vm.Nil(), nil
	}
	host["report"] = func(args []vm.Value) (vm.Value, error) {
		if err := need(args, 1, "report"); err != nil {
			return vm.Nil(), err
		}
		if err := args[0].CheckDepth(); err != nil {
			return vm.Nil(), err
		}
		a.Results = append(a.Results, args[0].Clone())
		return vm.Nil(), nil
	}

	// --- mobility: the go primitive (§4) ---------------------------
	//
	// go(server_name, entry) transports the agent to the named server
	// and resumes at entry. It unwinds the current execution; code
	// after a successful go never runs at the departing server.

	host["go"] = func(args []vm.Value) (vm.Value, error) {
		if err := need(args, 2, "go"); err != nil {
			return vm.Nil(), err
		}
		destStr, err := str(args, 0, "go")
		if err != nil {
			return vm.Nil(), err
		}
		entry, err := str(args, 1, "go")
		if err != nil {
			return vm.Nil(), err
		}
		dest, err := names.Parse(destStr)
		if err != nil {
			return vm.Nil(), fmt.Errorf("%w: go destination: %v", ErrBadArg, err)
		}
		v.migrateDest = dest
		v.migrateEntry = entry
		return vm.Nil(), errMigrate
	}

	// colocate(resource_name, entry) is the §4 higher-level mobility
	// abstraction: resolve the named resource's current location via
	// the name service and migrate there, resuming at entry. Built on
	// the go primitive exactly as the paper describes.
	host["colocate"] = func(args []vm.Value) (vm.Value, error) {
		if err := need(args, 2, "colocate"); err != nil {
			return vm.Nil(), err
		}
		resStr, err := str(args, 0, "colocate")
		if err != nil {
			return vm.Nil(), err
		}
		entry, err := str(args, 1, "colocate")
		if err != nil {
			return vm.Nil(), err
		}
		rn, err := names.Parse(resStr)
		if err != nil {
			return vm.Nil(), fmt.Errorf("%w: colocate resource: %v", ErrBadArg, err)
		}
		// ResolveAll answers nearest-first when the server has a
		// proximity estimate, so a resource replicated on several
		// servers co-locates the agent with its closest live copy.
		locs, err := s.resolver.ResolveAll(rn)
		if err != nil {
			return vm.Nil(), err
		}
		dest := names.Name{}
		for _, loc := range locs {
			if !loc.ServerName.IsZero() {
				dest = loc.ServerName
				break
			}
		}
		if dest.IsZero() {
			return vm.Nil(), fmt.Errorf("%w: resource %s has no hosting server", ErrBadArg, rn)
		}
		v.migrateDest = dest
		v.migrateEntry = entry
		return vm.Nil(), errMigrate
	}

	// --- the resource binding protocol (Fig. 6) --------------------
	//
	// get_resource implements steps 2–5: the agent requests a global
	// resource name; the environment looks it up in the registry,
	// upcalls getProxy with the agent's credentials (fetched from the
	// domain database), and returns a handle to the proxy. Step 6 is
	// the invoke call below.

	host["get_resource"] = func(args []vm.Value) (vm.Value, error) {
		if err := need(args, 1, "get_resource"); err != nil {
			return vm.Nil(), err
		}
		nameStr, err := str(args, 0, "get_resource")
		if err != nil {
			return vm.Nil(), err
		}
		rn, err := names.Parse(nameStr)
		if err != nil {
			return vm.Nil(), fmt.Errorf("%w: resource name: %v", ErrBadArg, err)
		}
		br, err := s.bindResource(v, rn) // steps 3-4 (binding.go)
		if err != nil {
			return vm.Nil(), err
		}
		return v.nextHandle(br), nil // step 5
	}

	// invoke(handle, method, args...) is step 6: access the resource
	// via the proxy; every protection check lives in the proxy. The
	// shared invocation path (binding.go) settles the accounting charge
	// into the domain database's usage record.
	host["invoke"] = func(args []vm.Value) (vm.Value, error) {
		if len(args) < 2 {
			return vm.Nil(), fmt.Errorf("%w: invoke wants (handle, method, ...)", ErrBadArg)
		}
		if args[0].Kind != vm.KindHandle {
			return vm.Nil(), fmt.Errorf("%w: invoke arg 0 must be a resource handle", ErrBadArg)
		}
		method, err := str(args, 1, "invoke")
		if err != nil {
			return vm.Nil(), err
		}
		br, ok := v.handles[args[0].Handle]
		if !ok {
			return vm.Nil(), ErrBadHandle
		}
		return s.invokeProxy(v, br, method, args[2:])
	}

	// resource_methods(handle) lists the methods currently enabled on
	// a proxy, letting agents adapt to restricted grants.
	host["resource_methods"] = func(args []vm.Value) (vm.Value, error) {
		if err := need(args, 1, "resource_methods"); err != nil {
			return vm.Nil(), err
		}
		if args[0].Kind != vm.KindHandle {
			return vm.Nil(), fmt.Errorf("%w: resource_methods wants a handle", ErrBadArg)
		}
		br, ok := v.handles[args[0].Handle]
		if !ok {
			return vm.Nil(), ErrBadHandle
		}
		proxy := br.proxy
		ms := proxy.MethodNames()
		sort.Strings(ms) // map order otherwise; agents see one list
		var out []vm.Value
		for _, m := range ms {
			if proxy.IsEnabled(m) {
				out = append(out, vm.S(m))
			}
		}
		return vm.L(out...), nil
	}

	// --- dynamic extension of server capabilities (§5.5, C9) -------
	//
	// install_resource(resource_name, module, policy_path) registers
	// a resource whose methods are implemented by one of the agent's
	// own modules. The resource object stays behind when the agent
	// departs; other agents then access it "via the usual
	// proxy-request mechanism".

	host["install_resource"] = func(args []vm.Value) (vm.Value, error) {
		if err := need(args, 3, "install_resource"); err != nil {
			return vm.Nil(), err
		}
		nameStr, err := str(args, 0, "install_resource")
		if err != nil {
			return vm.Nil(), err
		}
		modName, err := str(args, 1, "install_resource")
		if err != nil {
			return vm.Nil(), err
		}
		path, err := str(args, 2, "install_resource")
		if err != nil {
			return vm.Nil(), err
		}
		rn, err := names.Parse(nameStr)
		if err != nil {
			return vm.Nil(), fmt.Errorf("%w: resource name: %v", ErrBadArg, err)
		}
		def, err := s.newVMResource(v, rn, modName, path)
		if err != nil {
			return vm.Nil(), err
		}
		var rules []policy.Rule
		if s.cfg.InstalledResourcePolicy {
			rules = append(rules, policyRuleForInstalled(path))
		}
		// Registration is a mediated operation (step 1 of Fig. 6,
		// performed by an agent this time); binding.go owns the path.
		if err := s.installAgentResource(v, rn, def, rules...); err != nil {
			return vm.Nil(), err
		}
		return vm.B(true), nil
	}

	// --- inter-agent communication (§5.1, §5.5) ---------------------
	//
	// Co-located agents communicate through the same proxy scheme: an
	// agent registers a mailbox resource; peers obtain proxies to it
	// and invoke its send method; the owner drains it with recv.

	host["make_mailbox"] = func(args []vm.Value) (vm.Value, error) {
		if err := need(args, 2, "make_mailbox"); err != nil {
			return vm.Nil(), err
		}
		nameStr, err := str(args, 0, "make_mailbox")
		if err != nil {
			return vm.Nil(), err
		}
		path, err := str(args, 1, "make_mailbox")
		if err != nil {
			return vm.Nil(), err
		}
		rn, err := names.Parse(nameStr)
		if err != nil {
			return vm.Nil(), fmt.Errorf("%w: mailbox name: %v", ErrBadArg, err)
		}
		// Departure withdraws this server's location from the name, so
		// it must be a resource in the owner's own namespace: never a
		// server's or an agent's name, nor another domain's resource.
		if own := a.Credentials.Owner.Authority; rn.Kind != names.KindResource || rn.Authority != own {
			return vm.Nil(), fmt.Errorf("%w: mailbox name %s is not a resource of %s", ErrBadArg, rn, own)
		}
		def := s.newMailbox(v, rn, path)
		// The owner gets full access; everyone else may only send.
		if err := s.installAgentResource(v, rn, def,
			policyOwnerRule(a.Credentials.Owner, path),
			policySendRule(path)); err != nil {
			return vm.Nil(), err
		}
		v.mailboxes = append(v.mailboxes, rn)
		return vm.B(true), nil
	}

	host["recv"] = func(args []vm.Value) (vm.Value, error) {
		if err := need(args, 0, "recv"); err != nil {
			return vm.Nil(), err
		}
		v.mailMu.Lock()
		defer v.mailMu.Unlock()
		if len(v.mailbox) == 0 {
			return vm.Nil(), nil
		}
		msg := v.mailbox[0]
		v.mailbox = v.mailbox[1:]
		return msg, nil
	}
}
