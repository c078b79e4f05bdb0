// Package registry implements the agent server's resource registry
// (Fig. 1, Fig. 6 step 1): the table through which resources are made
// available to agents and looked up by global name. "Each entry also
// contains ownership information, which is used to prevent any
// unauthorized modifications to the registry entries" (§5.5).
//
// The registry is read-mostly — one lookup per resource binding,
// mutations only when resources are installed, replaced or removed — so
// the table is published as an immutable copy-on-write snapshot behind
// an atomic pointer. Lookups never lock; each mutation copies the
// table under a writer mutex, swaps the pointer and bumps the registry
// epoch (used by the policy decision cache for invalidation).
package registry

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/domain"
	"repro/internal/names"
	"repro/internal/resource"
)

// Errors.
var (
	ErrNotFound  = errors.New("registry: resource not found")
	ErrDuplicate = errors.New("registry: resource already registered")
	ErrNotOwner  = errors.New("registry: caller does not own this entry")
	ErrPathTaken = errors.New("registry: policy path unavailable")
)

// Entry is one registered resource: the resource object (through its
// AccessProtocol), plus ownership information.
type Entry struct {
	Name names.Name
	// Resource answers generic queries; AP creates proxies. A Def
	// satisfies both.
	Resource resource.Resource
	AP       resource.AccessProtocol
	// OwnerDomain is the protection domain that registered the entry
	// and may modify or remove it. Resources installed at server
	// start belong to the server domain; resources installed by
	// agents (§5.5 "dynamic extension of server capabilities") belong
	// to the installing agent's domain. An install_resource resource
	// survives its installer's departure; a mailbox is removed when
	// the visit that made it ends.
	OwnerDomain domain.ID
	// OwnerPrincipal is the registering principal, kept for audit.
	OwnerPrincipal names.Name
}

// table is one immutable published generation of the registry. The
// mutation epoch travels inside the snapshot, so a reader that pins one
// table always sees the epoch that table was published under — entries
// and epoch can never be observed from different generations.
type table struct {
	m     map[names.Name]Entry
	epoch uint64
}

// Registry is a name → Entry table with lock-free lookups.
type Registry struct {
	mu   sync.Mutex // serializes writers only
	snap atomic.Pointer[table]
}

// New returns an empty registry.
func New() *Registry {
	r := &Registry{}
	r.snap.Store(&table{m: make(map[names.Name]Entry)})
	return r
}

// Epoch returns the registry's mutation epoch. It bumps on every
// Register, Unregister and Replace; cached decisions stamped with an
// older epoch are stale.
func (r *Registry) Epoch() uint64 { return r.snap.Load().epoch }

// load returns the current immutable table; callers must not mutate it.
func (r *Registry) load() *table { return r.snap.Load() }

// publish installs a new table generation; the caller holds r.mu.
func (r *Registry) publish(m map[names.Name]Entry) {
	r.snap.Store(&table{m: m, epoch: r.load().epoch + 1})
}

// clone copies the current table for a mutation; the caller holds r.mu.
func (r *Registry) clone() map[names.Name]Entry {
	cur := r.load().m
	m := make(map[names.Name]Entry, len(cur)+1)
	for n, e := range cur {
		m[n] = e
	}
	return m
}

// Snapshot is one pinned generation of the registry: any number of
// lookups against it observe a single consistent table and its epoch.
// The admission gate pins one snapshot per manifest check instead of
// paying an atomic load per manifest entry; the binding path pins one
// so the decision-cache stamp and the entry come from the same
// generation.
type Snapshot struct {
	t *table
}

// Snapshot pins the current generation.
func (r *Registry) Snapshot() Snapshot { return Snapshot{t: r.snap.Load()} }

// Epoch reports the pinned generation's mutation epoch.
func (s Snapshot) Epoch() uint64 { return s.t.epoch }

// Lookup finds an entry in the pinned generation; same contract as
// Registry.Lookup.
func (s Snapshot) Lookup(n names.Name) (Entry, error) {
	e, ok := s.t.m[n]
	if !ok {
		return Entry{}, fmt.Errorf("%w: %s", ErrNotFound, n)
	}
	return e, nil
}

// Len reports the number of entries in the pinned generation.
func (s Snapshot) Len() int { return len(s.t.m) }

// Register adds an entry (Fig. 6 step 1: "resource registers itself").
func (r *Registry) Register(e Entry) error { return r.register(e, false) }

// RegisterExclusive adds an entry like Register and, in the same step
// under the writer lock, claims the entry's policy path: it fails with
// ErrPathTaken when that path is empty, the wildcard "*", or already the
// path of another entry. Server policy rules and cached decisions
// match resources by path, so an agent installing its own entry (a
// mailbox, an installed resource) registers this way; otherwise its
// entry would share the grants of whatever else answers to that path —
// the host's own resources, or with "*" all of them.
func (r *Registry) RegisterExclusive(e Entry) error { return r.register(e, true) }

func (r *Registry) register(e Entry, exclusive bool) error {
	if err := e.Name.Valid(); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	if e.Resource == nil || e.AP == nil {
		return errors.New("registry: entry needs Resource and AccessProtocol")
	}
	path := policyPath(e)
	if exclusive && (path == "" || path == "*") {
		return fmt.Errorf("%w: %q", ErrPathTaken, path)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.load().m
	if _, dup := cur[e.Name]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicate, e.Name)
	}
	if exclusive {
		for n, o := range cur {
			if policyPath(o) == path {
				return fmt.Errorf("%w: %q is held by %s", ErrPathTaken, path, n)
			}
		}
	}
	t := r.clone()
	t[e.Name] = e
	r.publish(t)
	return nil
}

// policyPath is the path policy rules match an entry by; an entry whose
// access protocol is not a resource.Def has none.
func policyPath(e Entry) string {
	if d, ok := e.AP.(*resource.Def); ok {
		return d.Path
	}
	return ""
}

// Lookup finds an entry by name (Fig. 6 step 3). The returned Entry is
// a copy: mutating its ownership fields affects nothing — the table can
// only be changed through Replace/Unregister, which enforce the §5.5
// ownership check.
func (r *Registry) Lookup(n names.Name) (Entry, error) {
	e, ok := r.load().m[n]
	if !ok {
		return Entry{}, fmt.Errorf("%w: %s", ErrNotFound, n)
	}
	return e, nil
}

// Unregister removes an entry. Only the owning domain (or the server)
// may do so — the ownership check of §5.5.
func (r *Registry) Unregister(caller domain.ID, n names.Name) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.load().m[n]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, n)
	}
	if caller != domain.ServerID && caller != e.OwnerDomain {
		return fmt.Errorf("%w: %s owned by %s", ErrNotOwner, n, e.OwnerDomain)
	}
	t := r.clone()
	delete(t, n)
	r.publish(t)
	return nil
}

// Replace swaps an entry's resource and access protocol, subject to the
// same ownership check.
func (r *Registry) Replace(caller domain.ID, n names.Name, res resource.Resource, ap resource.AccessProtocol) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.load().m[n]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, n)
	}
	if caller != domain.ServerID && caller != e.OwnerDomain {
		return fmt.Errorf("%w: %s owned by %s", ErrNotOwner, n, e.OwnerDomain)
	}
	e.Resource = res
	e.AP = ap
	t := r.clone()
	t[n] = e
	r.publish(t)
	return nil
}

// List returns all registered names.
func (r *Registry) List() []names.Name {
	t := r.load().m
	out := make([]names.Name, 0, len(t))
	for n := range t {
		out = append(out, n)
	}
	return out
}

// Len reports the number of entries.
func (r *Registry) Len() int {
	return len(r.load().m)
}
