package names

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ResolverConfig tunes a caching resolver.
type ResolverConfig struct {
	// Self is the resolver owner's own address, the origin for
	// proximity ranking. Empty disables ranking.
	Self string
	// Proximity estimates the network latency between two addresses.
	// Nil disables location-aware ranking: ResolveAll then preserves
	// authority order (primary first).
	Proximity func(from, to string) time.Duration
	// Now returns the current time in nanoseconds. Resolvers sit on
	// the dispatch hot path, so owners inject their cheap clock (the
	// server injects the process-wide coarse clock); nil falls back to
	// time.Now.
	Now func() int64
}

// ResolverStats is a point-in-time snapshot of resolver counters.
type ResolverStats struct {
	// Hits counts lease-valid cache serves (the lock-free fast path).
	Hits uint64
	// HintServes counts serves from a forwarding hint observed
	// locally (piggybacked on a transfer ack) rather than fetched
	// from the authority.
	HintServes uint64
	// StaleServes counts serves of an expired entry while an
	// asynchronous refresh was in flight.
	StaleServes uint64
	// Misses counts resolutions that had to consult the authority
	// synchronously.
	Misses uint64
	// Refreshes counts asynchronous lease refreshes started.
	Refreshes uint64
	// Invalidations counts explicit cache invalidations (failed
	// sends, authority not-bound answers).
	Invalidations uint64
}

// cacheEntry is one cached binding. hint marks entries learned from a
// forwarding hint rather than the authority; they carry the previous
// entry's lease (or the default) and are replaced by the first
// authoritative answer.
type cacheEntry struct {
	b       Binding
	expires int64
	hint    bool
}

// hotCounter is a cache-line-padded striped counter for the lock-free
// resolve fast path: a single shared atomic would make otherwise
// independent goroutines ping-pong one cache line, serializing the very
// path the COW snapshot keeps coordination-free. Stripes follow the
// name shards, so concurrent resolutions of different names land on
// different lines.
type hotCounter [NumShards]struct {
	v atomic.Uint64
	_ [56]byte // pad to a cache line
}

func (c *hotCounter) add(stripe uint32) { c[stripe].v.Add(1) }

func (c *hotCounter) total() uint64 {
	var t uint64
	for i := range c {
		t += c[i].v.Load()
	}
	return t
}

// Resolver is a per-server lease-caching resolver over an authoritative
// Directory. The cache is sharded like the authority (cowShards):
// lease-valid entries are served lock-free (one atomic load + map read,
// zero allocations), and a write copies and republishes only the shard
// that owns the name. Expired entries are served stale once while a
// deduplicated asynchronous refresh revalidates them; misses fall
// through to the authority synchronously. Dispatch failure
// invalidates, so a stale cache always converges: the worst case is
// one failed send against the old location followed by an
// authoritative re-resolve. Every write also sweeps its shard of
// entries whose lease ended at least one lease ago, so the cache stays
// bounded by the names written within about two leases rather than by
// every name the server has ever sent.
type Resolver struct {
	auth Directory
	cfg  ResolverConfig

	tab cowShards[cacheEntry]

	mu         sync.Mutex // refresh dedupe only
	refreshing map[Name]bool

	hits          hotCounter
	hintServes    hotCounter
	staleServes   atomic.Uint64
	misses        atomic.Uint64
	refreshes     atomic.Uint64
	invalidations atomic.Uint64
}

// NewResolver returns an empty resolver over auth.
func NewResolver(auth Directory, cfg ResolverConfig) *Resolver {
	if cfg.Now == nil {
		cfg.Now = func() int64 { return time.Now().UnixNano() }
	}
	r := &Resolver{
		auth:       auth,
		cfg:        cfg,
		refreshing: make(map[Name]bool),
	}
	r.tab.init()
	return r
}

// Resolve returns the best-known location of a name. Lease-valid cache
// hits take the lock-free fast path; expired entries are served stale
// while a background refresh runs; misses consult the authority.
func (r *Resolver) Resolve(n Name) (Location, error) {
	i := shardIndex(n)
	if e, ok := r.tab[i].snap.Load().m[n]; ok {
		if r.cfg.Now() < e.expires {
			if e.hint {
				r.hintServes.add(i)
			} else {
				r.hits.add(i)
			}
			return e.b.Primary(), nil
		}
		r.staleServes.Add(1)
		r.refreshAsync(n)
		return e.b.Primary(), nil
	}
	r.misses.Add(1)
	b, err := r.fetch(n)
	if err != nil {
		return Location{}, err
	}
	return b.Primary(), nil
}

// ResolveAll returns every known location of a name, ranked nearest
// first when proximity ranking is configured (authority order — primary
// first — otherwise). The same cache/lease discipline as Resolve
// applies. The returned slice is the caller's to keep.
func (r *Resolver) ResolveAll(n Name) ([]Location, error) {
	var b Binding
	i := shardIndex(n)
	if e, ok := r.tab[i].snap.Load().m[n]; ok {
		if r.cfg.Now() < e.expires {
			if e.hint {
				r.hintServes.add(i)
			} else {
				r.hits.add(i)
			}
		} else {
			r.staleServes.Add(1)
			r.refreshAsync(n)
		}
		b = e.b
	} else {
		r.misses.Add(1)
		var err error
		b, err = r.fetch(n)
		if err != nil {
			return nil, err
		}
	}
	return r.rank(b.Locations), nil
}

// rank orders a copy of locs nearest-first by the configured proximity
// estimate. Unmeasurable pairs keep their relative (authority) order by
// sorting after measurable ones; with no Proximity func the copy keeps
// authority order.
func (r *Resolver) rank(locs []Location) []Location {
	out := make([]Location, len(locs))
	copy(out, locs)
	if r.cfg.Proximity == nil || len(out) < 2 {
		return out
	}
	type ranked struct {
		loc Location
		d   time.Duration
		ok  bool
	}
	ds := make([]ranked, len(out))
	for i, l := range out {
		d := r.cfg.Proximity(r.cfg.Self, l.Address)
		ds[i] = ranked{loc: l, d: d, ok: d > 0}
	}
	sort.SliceStable(ds, func(i, j int) bool {
		switch {
		case ds[i].ok && ds[j].ok:
			return ds[i].d < ds[j].d
		case ds[i].ok:
			return true
		default:
			return false
		}
	})
	for i := range ds {
		out[i] = ds[i].loc
	}
	return out
}

// fetch consults the authority and installs (or, for not-bound answers,
// removes) the cache entry.
func (r *Resolver) fetch(n Name) (Binding, error) {
	b, err := r.auth.Resolve(n)
	if err != nil {
		// A definitive "not bound" (or unroutable authority) answer
		// invalidates whatever we had cached — the authority has
		// spoken.
		r.removeEntry(n)
		return Binding{}, err
	}
	r.storeEntry(n, cacheEntry{
		b:       b,
		expires: r.cfg.Now() + int64(b.Lease),
		hint:    false,
	})
	return b, nil
}

// refreshAsync starts one background revalidation of n, deduplicating
// concurrent requests for the same name.
func (r *Resolver) refreshAsync(n Name) {
	r.mu.Lock()
	if r.refreshing[n] {
		r.mu.Unlock()
		return
	}
	r.refreshing[n] = true
	r.mu.Unlock()
	r.refreshes.Add(1)
	go func() {
		_, _ = r.fetch(n)
		r.mu.Lock()
		delete(r.refreshing, n)
		r.mu.Unlock()
	}()
}

// Observe installs a forwarding hint: a location learned out of band
// (piggybacked on a transfer ack) rather than from the authority. The
// hint carries a full default lease and is replaced by the first
// authoritative refresh. Hints never displace a lease-valid
// authoritative entry with the same location.
func (r *Resolver) Observe(n Name, loc Location) {
	now := r.cfg.Now()
	sh := r.tab.shard(n)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.snap.Load().m[n]
	if ok && !e.hint && now < e.expires && e.b.Primary() == loc {
		return
	}
	lease := DefaultLease
	if ok && e.b.Lease > 0 {
		lease = e.b.Lease
	}
	m := sh.clone(live(now))
	m[n] = cacheEntry{
		b:       Binding{Locations: []Location{loc}, Lease: lease},
		expires: now + int64(lease),
		hint:    true,
	}
	sh.publish(m)
}

// Invalidate drops the cache entry for n (e.g. after a failed send to
// its address), forcing the next resolution through the authority.
func (r *Resolver) Invalidate(n Name) {
	r.invalidations.Add(1)
	r.removeEntry(n)
}

// Flush drops the whole cache.
func (r *Resolver) Flush() {
	for i := range r.tab {
		sh := &r.tab[i]
		sh.mu.Lock()
		sh.publish(make(map[Name]cacheEntry))
		sh.mu.Unlock()
	}
}

// Stats returns a snapshot of the resolver counters.
func (r *Resolver) Stats() ResolverStats {
	return ResolverStats{
		Hits:          r.hits.total(),
		HintServes:    r.hintServes.total(),
		StaleServes:   r.staleServes.Load(),
		Misses:        r.misses.Load(),
		Refreshes:     r.refreshes.Load(),
		Invalidations: r.invalidations.Load(),
	}
}

// Len reports the number of cached entries.
func (r *Resolver) Len() int { return r.tab.len() }

// live is the sweep every cache write applies to the shard it copies:
// it keeps an entry until one full lease has passed since the entry
// expired. An expired entry therefore stays servable stale (with a
// refresh) for one more lease, and an entry nobody asks about again
// is dropped the next time its shard is written.
func live(now int64) func(cacheEntry) bool {
	return func(e cacheEntry) bool { return now-e.expires < int64(e.b.Lease) }
}

// storeEntry publishes a new generation of n's shard with n → e.
func (r *Resolver) storeEntry(n Name, e cacheEntry) {
	now := r.cfg.Now()
	sh := r.tab.shard(n)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m := sh.clone(live(now))
	m[n] = e
	sh.publish(m)
}

// removeEntry publishes a new generation of n's shard without n.
func (r *Resolver) removeEntry(n Name) {
	now := r.cfg.Now()
	sh := r.tab.shard(n)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.snap.Load().m[n]; !ok {
		return
	}
	m := sh.clone(live(now))
	delete(m, n)
	sh.publish(m)
}
