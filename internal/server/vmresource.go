package server

import (
	"fmt"
	"sync"

	"repro/internal/asl"
	"repro/internal/domain"
	"repro/internal/names"
	"repro/internal/policy"
	"repro/internal/resource"
	"repro/internal/vm"
)

// vmResourceFuel bounds each method invocation of an installed
// resource; installed code is as untrusted as the agent that carried it.
const vmResourceFuel = 1_000_000

// newVMResource builds a resource whose methods are implemented by one
// of the visiting agent's own modules (§5.5's dynamic server extension:
// "the agent can carry resource objects, each of which encapsulates a
// customized access control protocol ... leaving the passive resource
// objects behind").
//
// The resource object is passive and confined: its methods execute in a
// private VM environment with only the pure builtins — no server API,
// no network, no registry — and its state is a fresh global table
// initialized by the module's __init__, independent of the installing
// agent's state. The environment is built once, at install time.
func (s *Server) newVMResource(v *visit, rn names.Name, modName, path string) (*resource.Def, error) {
	// The module must come from the agent's own bundle; trusted
	// modules are the server's and cannot be re-registered by agents.
	// The resource runs a private execution copy: inline caches live in
	// the module, and the namespace's copy keeps running on other
	// goroutines (the installing visit, other resources installed from
	// the same module).
	var mod *vm.Module
	for _, own := range v.ns.OwnModules() {
		if own == modName {
			m, err := v.ns.PrivateModule(modName)
			if err != nil {
				return nil, err
			}
			mod = m
		}
	}
	if mod == nil {
		return nil, fmt.Errorf("%w: module %q not in agent bundle", ErrBadArg, modName)
	}

	// One private environment serves every method call: mu serializes
	// the calls, so its globals, builtins, inline caches, stack arena
	// and argument buffer are reused; only the fuel budget is fresh
	// per call.
	//
	// Values cross into and out of the resource as deep copies, as
	// mailbox send and report take them: vm.Run copies the argument
	// Values but not the lists and maps they point to, so a caller
	// that kept a list it stored, or a list a method returned, could
	// otherwise change the resource's state with no further call.
	env := vm.NewEnv()
	env.Resolver = vm.ModuleResolver{M: mod}
	vm.InstallBuiltins(env)
	var in []vm.Value
	runIn := func(fn string, args []vm.Value) (vm.Value, error) {
		in = in[:0]
		for _, a := range args {
			if err := a.CheckDepth(); err != nil {
				return vm.Nil(), err
			}
			in = append(in, a.Clone())
		}
		env.Meter = vm.NewMeter(vmResourceFuel)
		out, err := vm.Run(env, mod, fn, in...)
		clear(in) // the buffer outlives the call; its values must not
		if err != nil {
			return vm.Nil(), err
		}
		if err := out.CheckDepth(); err != nil {
			return vm.Nil(), err
		}
		return out.Clone(), nil
	}

	var mu sync.Mutex
	methods := make(map[string]resource.Method)
	for i := range mod.Fns {
		fn := mod.Fns[i]
		if fn.Name == asl.InitFunc {
			continue
		}
		name := fn.Name
		nparams := fn.NParams
		methods[name] = func(args []vm.Value) (vm.Value, error) {
			if len(args) != nparams {
				return vm.Nil(), fmt.Errorf("%w: %s wants %d args, got %d", ErrBadArg, name, nparams, len(args))
			}
			mu.Lock()
			defer mu.Unlock()
			return runIn(name, args)
		}
	}

	// Initialize the resource's own state once, at install time.
	if _, f := mod.Fn(asl.InitFunc); f != nil {
		mu.Lock()
		_, err := runIn(asl.InitFunc, nil)
		mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("server: installed resource init: %w", err)
		}
	}

	return &resource.Def{
		ResourceImpl: resource.ResourceImpl{
			Name:  rn,
			Owner: v.agent.Credentials.Owner,
			Desc:  fmt.Sprintf("installed by %s (module %s)", v.agent.Name, modName),
		},
		Path:    path,
		Methods: methods,
		// The installing agent's domain may control proxies of its
		// resource (selective revocation stays with the provider).
		Controllers: []domain.ID{v.dom},
	}, nil
}

// policyRuleForInstalled grants every principal access to a dynamically
// installed resource (demo default; see Config.InstalledResourcePolicy).
func policyRuleForInstalled(path string) policy.Rule {
	return policy.Rule{AnyPrincipal: true, Resource: path, Methods: []string{"*"}}
}
