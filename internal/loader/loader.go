// Package loader implements per-agent namespaces: the analogue of
// Java's class-loader-based name-space separation (§3.2, §5.3).
//
// Two properties from the paper are enforced here:
//
//   - Impostor prevention: "any privileged classes ... are loaded from
//     the local classpath and not from a remote site. This prevents
//     agents from installing 'impostor' classes of the same name, which
//     can bypass the security checks in their code." Trusted modules
//     installed by the server always shadow agent-carried modules with
//     the same name.
//
//   - Isolation: "the namespace mechanism also serves to isolate agents
//     from one another." Each agent gets its own Namespace; nothing in
//     one namespace can name code or state in another.
package loader

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/vm"
)

// Errors.
var (
	ErrShadowedTrusted = errors.New("loader: module name shadows a trusted module")
	ErrUnknownModule   = errors.New("loader: unknown module")
	ErrUnknownFunction = errors.New("loader: unknown function")
)

// TrustedSet is the server's local "classpath": verified modules every
// agent may call but none may replace. It is immutable after server
// start except through InstallTrusted (a server-domain operation).
type TrustedSet struct {
	mu   sync.RWMutex
	mods map[string]*vm.Module
	// epoch increments whenever the set gains a module, i.e. whenever a
	// name that previously resolved to an agent module could now be
	// shadowed by a trusted one. The interpreter keys its call-site
	// inline caches on it (vm.EpochResolver), so every cached
	// resolution made before an install is revalidated after it.
	epoch atomic.Uint64
}

// NewTrustedSet verifies and installs the given modules.
func NewTrustedSet(mods ...*vm.Module) (*TrustedSet, error) {
	ts := &TrustedSet{mods: make(map[string]*vm.Module, len(mods))}
	for _, m := range mods {
		if err := ts.InstallTrusted(m); err != nil {
			return nil, err
		}
	}
	return ts, nil
}

// InstallTrusted verifies and adds a trusted module.
func (ts *TrustedSet) InstallTrusted(m *vm.Module) error {
	if err := vm.Verify(m); err != nil {
		return fmt.Errorf("loader: trusted module %q: %w", m.Name, err)
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, dup := ts.mods[m.Name]; dup {
		return fmt.Errorf("loader: trusted module %q already installed", m.Name)
	}
	ts.mods[m.Name] = m
	ts.epoch.Add(1)
	return nil
}

// Epoch reports the installation epoch: it increases on every
// InstallTrusted. Existing modules are never replaced (installs of a
// duplicate name fail), so a resolution cached at epoch e stays valid
// until the epoch moves past e.
func (ts *TrustedSet) Epoch() uint64 { return ts.epoch.Load() }

// Get returns a trusted module by name.
func (ts *TrustedSet) Get(name string) (*vm.Module, bool) {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	m, ok := ts.mods[name]
	return m, ok
}

// Names lists trusted module names.
func (ts *TrustedSet) Names() []string {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	out := make([]string, 0, len(ts.mods))
	for n := range ts.mods {
		out = append(out, n)
	}
	return out
}

// Namespace is one agent's view of loadable code: the agent's own
// verified bundle plus the server's trusted set. Resolution order for a
// module name is trusted-first, which yields the impostor-prevention
// property: an agent-supplied module can never be selected when a
// trusted module of the same name exists.
// A Namespace hands out *execution copies* of its modules: prepared
// forms built by vm.Prepare (superinstructions + inline-cache tables)
// that share the canonical modules' constant pools but never alias
// their code. The canonical bundle the agent carries — the thing that
// is digested, manifest-checked and re-serialized on departure — is
// untouched; prepared copies are process-local and never cross the
// wire.
type Namespace struct {
	trusted *TrustedSet
	own     map[string]*vm.Module // prepared at admission

	// Trusted modules are prepared lazily, once per namespace, on first
	// resolution. The cache is keyed by name and never invalidated:
	// InstallTrusted refuses duplicate names, so a trusted module, once
	// seen, is immutable.
	mu   sync.Mutex
	exec map[string]*vm.Module
}

// NewNamespace verifies the agent's bundle and builds its namespace.
// Agent modules whose names collide with trusted modules are admitted
// (the bundle may legitimately predate the server's configuration) but
// are unreachable — the trusted module always wins. Set strict to
// reject such bundles outright instead.
func NewNamespace(trusted *TrustedSet, bundle []vm.Module, strict bool) (*Namespace, error) {
	if err := vm.VerifyBundle(bundle); err != nil {
		return nil, err
	}
	ns := &Namespace{trusted: trusted, own: make(map[string]*vm.Module, len(bundle))}
	for i := range bundle {
		m := &bundle[i]
		if _, shadowed := trusted.Get(m.Name); shadowed && strict {
			return nil, fmt.Errorf("%w: %q", ErrShadowedTrusted, m.Name)
		}
		ns.own[m.Name] = vm.Prepare(m)
	}
	return ns, nil
}

// Epoch implements vm.EpochResolver: the namespace's resolution
// function changes exactly when the trusted set gains a module (a new
// trusted name may shadow an agent module from then on).
func (ns *Namespace) Epoch() uint64 { return ns.trusted.Epoch() }

// execTrusted returns the namespace's prepared copy of a trusted
// module, building it on first use.
func (ns *Namespace) execTrusted(name string, canon *vm.Module) *vm.Module {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if m, ok := ns.exec[name]; ok {
		return m
	}
	if ns.exec == nil {
		ns.exec = make(map[string]*vm.Module)
	}
	m := vm.Prepare(canon)
	ns.exec[name] = m
	return m
}

// Module resolves a module name: trusted set first, then the agent's
// own bundle. The returned module is the namespace's prepared execution
// copy, not the canonical form.
func (ns *Namespace) Module(name string) (*vm.Module, error) {
	if m, ok := ns.trusted.Get(name); ok {
		return ns.execTrusted(name, m), nil
	}
	if m, ok := ns.own[name]; ok {
		return m, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownModule, name)
}

// PrivateModule resolves a module name as Module does but returns a new
// execution copy that shares no inline caches with the namespace's own,
// for code that runs on other goroutines than the agent's visit (an
// installed resource).
func (ns *Namespace) PrivateModule(name string) (*vm.Module, error) {
	m, err := ns.Module(name)
	if err != nil {
		return nil, err
	}
	return vm.Prepare(m), nil
}

// ResolveFunc implements vm.Resolver for "module:function" names; a
// bare function name is searched across the agent's own modules only
// (trusted code is always addressed explicitly, so an agent cannot be
// tricked into calling trusted internals by accident).
func (ns *Namespace) ResolveFunc(name string) (*vm.Module, *vm.Func, error) {
	for i := 0; i < len(name); i++ {
		if name[i] == ':' {
			m, err := ns.Module(name[:i])
			if err != nil {
				return nil, nil, err
			}
			if _, f := m.Fn(name[i+1:]); f != nil {
				return m, f, nil
			}
			return nil, nil, fmt.Errorf("%w: %q", ErrUnknownFunction, name)
		}
	}
	for _, m := range ns.own {
		if _, f := m.Fn(name); f != nil {
			return m, f, nil
		}
	}
	return nil, nil, fmt.Errorf("%w: %q", ErrUnknownFunction, name)
}

// OwnModules lists the agent's own module names (shadowed or not).
func (ns *Namespace) OwnModules() []string {
	out := make([]string, 0, len(ns.own))
	for n := range ns.own {
		out = append(out, n)
	}
	return out
}
