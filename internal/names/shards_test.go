package names

import (
	"fmt"
	"testing"
)

// republished runs write and reports which shards of s published a new
// generation during it.
func republished[V any](s *cowShards[V], write func()) []int {
	var before [NumShards]*cowTable[V]
	for i := range s {
		before[i] = s[i].snap.Load()
	}
	write()
	var changed []int
	for i := range s {
		if s[i].snap.Load() != before[i] {
			changed = append(changed, i)
		}
	}
	return changed
}

// TestWriteRepublishesOnlyItsShard: every write to the authority or the
// resolver cache copies and republishes the shard owning the name, and
// leaves every other shard's published table as it was.
func TestWriteRepublishesOnlyItsShard(t *testing.T) {
	auth := NewService()
	_, cfg := newResolverClock()
	r := NewResolver(auth, cfg)
	// Populate many shards so an accidental whole-table copy would show.
	for i := 0; i < 4*NumShards; i++ {
		n := Agent("acme.org", fmt.Sprintf("fill/a%d", i))
		if err := auth.Bind(n, Location{Address: "h:1"}); err != nil {
			t.Fatal(err)
		}
		r.Observe(n, Location{Address: "h:1"})
	}
	n := Agent("acme.org", "mover")
	own := int(shardIndex(n))
	moved := Location{Address: "h:2"}
	check := func(what string, changed []int) {
		t.Helper()
		if len(changed) != 1 || changed[0] != own {
			t.Fatalf("%s republished shards %v, want only %d", what, changed, own)
		}
	}

	check("Service.Bind", republished(&auth.shards, func() {
		if err := auth.Bind(n, moved); err != nil {
			t.Fatal(err)
		}
	}))
	check("Service.BindReplica", republished(&auth.shards, func() {
		if err := auth.BindReplica(n, Location{Address: "h:3"}); err != nil {
			t.Fatal(err)
		}
	}))
	check("Resolver fetch (miss)", republished(&r.tab, func() {
		if _, err := r.Resolve(n); err != nil {
			t.Fatal(err)
		}
	}))
	check("Resolver.Observe", republished(&r.tab, func() { r.Observe(n, Location{Address: "h:4"}) }))
	check("Resolver.Invalidate", republished(&r.tab, func() { r.Invalidate(n) }))
	check("Service.Unbind", republished(&auth.shards, func() { auth.Unbind(n) }))
}
