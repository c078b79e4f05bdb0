package names

import (
	"errors"
	"fmt"
	"time"
)

// Location is the current network binding of a named entity: the address
// of the agent server that hosts it. The paper keeps names
// location-independent precisely so this binding can change as agents
// migrate.
type Location struct {
	// Address is a dialable endpoint ("host:port" for TCP, or a
	// netsim endpoint identifier in simulation).
	Address string
	// ServerName is the agent server currently responsible for the
	// entity, when known.
	ServerName Name
}

// ErrNotBound is returned by Resolve and Lookup for unregistered names.
var ErrNotBound = errors.New("names: name not bound")

// DefaultLease is the binding TTL an authority grants when none was
// configured. Resolvers may serve a cached binding without consulting
// the authority until the lease expires; after that they must revalidate
// (they may serve the stale answer once while a refresh is in flight —
// see Resolver).
const DefaultLease = time.Second

// Binding is the authoritative record for one name: every known
// location (primary first, replicas after), the per-name mutation
// epoch, and the lease under which caches may hold it.
type Binding struct {
	// Locations holds the current primary at index 0 and any replicas
	// after it. The slice is immutable once published; callers must
	// not modify it.
	Locations []Location
	// Epoch strictly increases with every mutation of this name's
	// binding (Bind, BindReplica, Unbind), including across an unbind
	// and a later rebind. It is taken from the owning shard's
	// generation, so successive epochs of one name may step by more
	// than 1. A cached binding with an older epoch is stale even if its
	// lease has not yet expired.
	Epoch uint64
	// Lease is the TTL granted by the authority for caching this
	// binding.
	Lease time.Duration
}

// Primary returns the primary location (index 0), or the zero Location
// for an empty binding.
func (b Binding) Primary() Location {
	if len(b.Locations) == 0 {
		return Location{}
	}
	return b.Locations[0]
}

// Directory is the mutation-and-resolution surface shared by the
// single-authority Service and the multi-authority Federation. It
// deliberately omits the legacy Lookup method: callers outside
// internal/names resolve through a Resolver (enforced by the
// nameresolve analyzer), and Resolve exposes the full lease-carrying
// Binding a cache needs.
type Directory interface {
	Bind(n Name, loc Location) error
	BindReplica(n Name, loc Location) error
	Unbind(n Name)
	Resolve(n Name) (Binding, error)
}

// Service is an authoritative name store: a sharded registry mapping
// global names to leased bindings. Resolution is lock-free (one atomic
// pointer load plus a map read); mutations copy the owning shard under
// its writer mutex and publish a new generation. In a federation each
// Service is the authority for one naming authority component; a
// standalone Service (the common test configuration) is authoritative
// for every name it is handed.
type Service struct {
	lease  time.Duration
	shards cowShards[Binding]
}

// NewService returns an empty authoritative store granting DefaultLease
// on every binding.
func NewService() *Service { return NewServiceWithLease(DefaultLease) }

// NewServiceWithLease returns an empty store granting the given lease
// TTL. ttl <= 0 falls back to DefaultLease.
func NewServiceWithLease(ttl time.Duration) *Service {
	if ttl <= 0 {
		ttl = DefaultLease
	}
	s := &Service{lease: ttl}
	s.shards.init()
	return s
}

// Lease reports the TTL this authority grants on bindings.
func (s *Service) Lease() time.Duration { return s.lease }

// Bind registers or replaces the binding of a name: the new location
// becomes the sole (primary) location and the name's epoch advances, so
// caches holding the previous binding can detect staleness even inside
// an unexpired lease.
func (s *Service) Bind(n Name, loc Location) error {
	if err := n.Valid(); err != nil {
		return fmt.Errorf("names: bind: %w", err)
	}
	sh := s.shards.shard(n)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t := sh.clone(nil)
	t[n] = Binding{
		Locations: []Location{loc},
		Epoch:     sh.nextEpoch(),
		Lease:     s.lease,
	}
	sh.publish(t)
	return nil
}

// BindReplica adds loc as an additional location for n (replicated
// deployment of a resource or server). If n is unbound, loc becomes the
// primary. Re-adding an existing address replaces that entry in place
// (its ServerName may have changed). The epoch advances either way.
func (s *Service) BindReplica(n Name, loc Location) error {
	if err := n.Valid(); err != nil {
		return fmt.Errorf("names: bind replica: %w", err)
	}
	sh := s.shards.shard(n)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t := sh.clone(nil)
	prev := t[n]
	locs := make([]Location, 0, len(prev.Locations)+1)
	replaced := false
	for _, l := range prev.Locations {
		if l.Address == loc.Address {
			locs = append(locs, loc)
			replaced = true
			continue
		}
		locs = append(locs, l)
	}
	if !replaced {
		locs = append(locs, loc)
	}
	t[n] = Binding{
		Locations: locs,
		Epoch:     sh.nextEpoch(),
		Lease:     s.lease,
	}
	sh.publish(t)
	return nil
}

// Unbind removes a binding; unbinding an absent name is a no-op.
func (s *Service) Unbind(n Name) {
	sh := s.shards.shard(n)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.snap.Load().m[n]; !ok {
		return
	}
	t := sh.clone(nil)
	delete(t, n)
	sh.publish(t)
}

// Resolve returns the authoritative binding for a name. Lock-free: one
// atomic load plus a map read. The returned Binding's Locations slice
// is shared with the published snapshot and must not be modified.
func (s *Service) Resolve(n Name) (Binding, error) {
	b, ok := s.shards.shard(n).snap.Load().m[n]
	if !ok {
		return Binding{}, fmt.Errorf("%w: %s", ErrNotBound, n)
	}
	return b, nil
}

// Lookup resolves a name to its current primary location. It is the
// legacy single-location surface, confined to this package by the
// nameresolve analyzer: servers resolve through a Resolver, which
// caches the richer Binding that Resolve returns.
func (s *Service) Lookup(n Name) (Location, error) {
	b, err := s.Resolve(n)
	if err != nil {
		return Location{}, err
	}
	return b.Primary(), nil
}

// Snapshot returns a copy of all current primary bindings, for status
// queries. The copy stitches together per-shard generations; it is
// consistent per shard, not across shards.
func (s *Service) Snapshot() map[Name]Location {
	out := make(map[Name]Location)
	for i := range s.shards {
		for n, b := range s.shards[i].snap.Load().m {
			out[n] = b.Primary()
		}
	}
	return out
}

// Len reports the number of bound names.
func (s *Service) Len() int { return s.shards.len() }
