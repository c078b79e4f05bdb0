package names

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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

// NumShards is the shard count of the authoritative store. Like the
// domain DB, 32 spreads writer contention well past the server counts
// we simulate while keeping the footprint trivial.
const NumShards = 32

// shardTable is one immutable published generation of a shard. The
// shard epoch travels inside the snapshot (same discipline as
// internal/registry): a reader that pins one table always observes
// entries and epoch from a single generation.
type shardTable struct {
	m     map[Name]Binding
	epoch uint64
}

// shard is one lock-free-readable partition of the table.
type shard struct {
	mu   sync.Mutex // serializes writers only
	snap atomic.Pointer[shardTable]
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
	shards [NumShards]shard
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
	for i := range s.shards {
		s.shards[i].snap.Store(&shardTable{m: make(map[Name]Binding)})
	}
	return s
}

// Lease reports the TTL this authority grants on bindings.
func (s *Service) Lease() time.Duration { return s.lease }

// shardIndex hashes a name (FNV-1a over its components, with
// separators so ("ab","c") and ("a","bc") differ) to its owning shard.
func shardIndex(n Name) uint32 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	hashComponent := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff // separator
		h *= prime64
	}
	hashComponent(string(n.Kind))
	hashComponent(n.Authority)
	hashComponent(n.Path)
	return uint32(h % NumShards)
}

func (s *Service) shard(n Name) *shard { return &s.shards[shardIndex(n)] }

// nextEpoch is the generation the next publish of sh installs; the
// caller holds sh.mu. Stamping a binding with it keeps per-name epochs
// strictly increasing even across Unbind, which deletes the entry and
// so leaves no per-name counter to continue from.
func (sh *shard) nextEpoch() uint64 { return sh.snap.Load().epoch + 1 }

// publish installs a new generation of sh; the caller holds sh.mu.
func (sh *shard) publish(m map[Name]Binding) {
	sh.snap.Store(&shardTable{m: m, epoch: sh.nextEpoch()})
}

// clone copies sh's current table for a mutation; the caller holds
// sh.mu.
func (sh *shard) clone() map[Name]Binding {
	cur := sh.snap.Load().m
	m := make(map[Name]Binding, len(cur)+1)
	for n, b := range cur {
		m[n] = b
	}
	return m
}

// Bind registers or replaces the binding of a name: the new location
// becomes the sole (primary) location and the name's epoch advances, so
// caches holding the previous binding can detect staleness even inside
// an unexpired lease.
func (s *Service) Bind(n Name, loc Location) error {
	if err := n.Valid(); err != nil {
		return fmt.Errorf("names: bind: %w", err)
	}
	sh := s.shard(n)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t := sh.clone()
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
	sh := s.shard(n)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t := sh.clone()
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
	sh := s.shard(n)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.snap.Load().m[n]; !ok {
		return
	}
	t := sh.clone()
	delete(t, n)
	sh.publish(t)
}

// Resolve returns the authoritative binding for a name. Lock-free: one
// atomic load plus a map read. The returned Binding's Locations slice
// is shared with the published snapshot and must not be modified.
func (s *Service) Resolve(n Name) (Binding, error) {
	b, ok := s.shard(n).snap.Load().m[n]
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
func (s *Service) Len() int {
	total := 0
	for i := range s.shards {
		total += len(s.shards[i].snap.Load().m)
	}
	return total
}
