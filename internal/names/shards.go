package names

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// NumShards is the shard count of the authoritative store and of the
// resolver cache. Like the domain DB, 32 spreads writer contention well
// past the server counts we simulate while keeping the footprint
// trivial.
const NumShards = 32

// shardSeed keys shardIndex. Shard placement only has to be stable
// within one process, so a per-process random seed is enough.
var shardSeed = maphash.MakeSeed()

// shardIndex hashes a name to its owning shard. It sits on every
// lock-free read of both sharded tables, so it uses the runtime's
// hardware-accelerated string hash rather than a byte-at-a-time loop,
// and it hashes only the authority and path: names that differ in kind
// alone may share a shard, which costs nothing but spread. The two
// hashes are mixed with an odd multiplier, so ("ab","c") and ("a","bc")
// land independently.
func shardIndex(n Name) uint32 {
	h := maphash.String(shardSeed, n.Path)
	h ^= maphash.String(shardSeed, n.Authority) * 0x9e3779b97f4a7c15
	return uint32(h % NumShards)
}

// cowTable is one immutable published generation of a shard. The shard
// epoch travels inside the snapshot (same discipline as
// internal/registry): a reader that pins one table always observes
// entries and epoch from a single generation.
type cowTable[V any] struct {
	m     map[Name]V
	epoch uint64
}

// cowShard is one lock-free-readable partition of a sharded table.
// Readers load snap and index its map; writers serialize on mu, clone
// the current map, change the copy and publish it as a new generation.
type cowShard[V any] struct {
	mu   sync.Mutex // serializes writers only
	snap atomic.Pointer[cowTable[V]]
}

// cowShards is a NumShards-way sharded copy-on-write map keyed by name:
// a write copies and republishes only the shard that owns the name, so
// its cost follows the shard's size rather than the whole table's.
// names.Service (the authority) and names.Resolver (the per-server
// cache) both keep their entries in one.
type cowShards[V any] [NumShards]cowShard[V]

// init publishes an empty generation in every shard.
func (s *cowShards[V]) init() {
	for i := range s {
		s[i].snap.Store(&cowTable[V]{m: make(map[Name]V)})
	}
}

// shard returns the partition owning n.
func (s *cowShards[V]) shard(n Name) *cowShard[V] { return &s[shardIndex(n)] }

// len reports the number of entries across all shards' current
// generations.
func (s *cowShards[V]) len() int {
	total := 0
	for i := range s {
		total += len(s[i].snap.Load().m)
	}
	return total
}

// nextEpoch is the generation the next publish of sh installs; the
// caller holds sh.mu. Service stamps bindings with it, which keeps
// per-name epochs strictly increasing even across Unbind, which deletes
// the entry and so leaves no per-name counter to continue from.
func (sh *cowShard[V]) nextEpoch() uint64 { return sh.snap.Load().epoch + 1 }

// publish installs m as a new generation of sh; the caller holds sh.mu
// and must not touch m afterwards.
func (sh *cowShard[V]) publish(m map[Name]V) {
	sh.snap.Store(&cowTable[V]{m: m, epoch: sh.nextEpoch()})
}

// clone copies sh's current map for a mutation, leaving out every entry
// for which keep returns false (nil keeps all); the caller holds sh.mu.
func (sh *cowShard[V]) clone(keep func(V) bool) map[Name]V {
	cur := sh.snap.Load().m
	m := make(map[Name]V, len(cur)+1)
	for n, v := range cur {
		if keep == nil || keep(v) {
			m[n] = v
		}
	}
	return m
}
