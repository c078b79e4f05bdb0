package baseline

import (
	"fmt"
	"sync"

	"repro/internal/names"
)

// FlatNameService preserves the pre-federation name service design: one
// RWMutex over a single map of bindings, consulted on every dispatch
// and remote host call. It exists as the benchmark baseline for
// experiment C15 — the resolution-throughput comparison that motivated
// sharding the authoritative store (internal/names.Service) and putting
// a lease-caching resolver in front of it on every server. It matches
// the seed names.Service surface the dispatch path exercised: Bind,
// Unbind, Lookup, plus names.Directory so it can stand in for the real
// store under a Resolver in A/B runs (leases degenerate to "forever").
type FlatNameService struct {
	mu       sync.RWMutex
	bindings map[names.Name]names.Location
}

// NewFlatNameService returns an empty single-map name service.
func NewFlatNameService() *FlatNameService {
	return &FlatNameService{bindings: make(map[names.Name]names.Location)}
}

// Bind registers or replaces the location of a name.
func (s *FlatNameService) Bind(n names.Name, loc names.Location) error {
	if err := n.Valid(); err != nil {
		return fmt.Errorf("baseline: flat bind: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bindings[n] = loc
	return nil
}

// BindReplica collapses to Bind: the flat design predates multi-location
// bindings, so the newest replica simply becomes the binding.
func (s *FlatNameService) BindReplica(n names.Name, loc names.Location) error {
	return s.Bind(n, loc)
}

// UnbindReplica removes the binding when it points at address: the
// flat design holds one location per name.
func (s *FlatNameService) UnbindReplica(n names.Name, address string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bindings[n].Address == address {
		delete(s.bindings, n)
	}
}

// Unbind removes a binding; unbinding an absent name is a no-op.
func (s *FlatNameService) Unbind(n names.Name) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.bindings, n)
}

// Lookup resolves a name to its current location under the read lock —
// the seed hot path C15 measures against.
func (s *FlatNameService) Lookup(n names.Name) (names.Location, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	loc, ok := s.bindings[n]
	if !ok {
		return names.Location{}, fmt.Errorf("%w: %s", names.ErrNotBound, n)
	}
	return loc, nil
}

// Resolve adapts Lookup to the names.Directory surface. The flat design
// has no leases; it grants the default so resolvers layered above
// behave identically.
func (s *FlatNameService) Resolve(n names.Name) (names.Binding, error) {
	loc, err := s.Lookup(n)
	if err != nil {
		return names.Binding{}, err
	}
	return names.Binding{
		Locations: []names.Location{loc},
		Epoch:     1,
		Lease:     names.DefaultLease,
	}, nil
}

// Snapshot returns a copy of all current bindings, for status queries.
func (s *FlatNameService) Snapshot() map[names.Name]names.Location {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[names.Name]names.Location, len(s.bindings))
	for k, v := range s.bindings {
		out[k] = v
	}
	return out
}

// Len reports the number of bound names.
func (s *FlatNameService) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.bindings)
}
