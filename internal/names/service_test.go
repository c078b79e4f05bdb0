package names

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestBindResolveUnbind(t *testing.T) {
	s := NewService()
	n := Agent("acme.org", "workers/a1")
	loc := Location{Address: "hostA:7", ServerName: Server("acme.org", "srvA")}

	if _, err := s.Resolve(n); !errors.Is(err, ErrNotBound) {
		t.Fatalf("Resolve unbound = %v, want ErrNotBound", err)
	}
	if err := s.Bind(n, loc); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	b, err := s.Resolve(n)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if b.Primary() != loc {
		t.Fatalf("Primary = %+v, want %+v", b.Primary(), loc)
	}
	if b.Epoch != 1 {
		t.Fatalf("Epoch = %d, want 1", b.Epoch)
	}
	if b.Lease != DefaultLease {
		t.Fatalf("Lease = %v, want %v", b.Lease, DefaultLease)
	}

	loc2 := Location{Address: "hostB:7"}
	if err := s.Bind(n, loc2); err != nil {
		t.Fatalf("rebind: %v", err)
	}
	b, err = s.Resolve(n)
	if err != nil {
		t.Fatalf("Resolve after rebind: %v", err)
	}
	if b.Epoch != 2 {
		t.Fatalf("Epoch after rebind = %d, want 2", b.Epoch)
	}
	if got := b.Primary().Address; got != "hostB:7" {
		t.Fatalf("Primary after rebind = %q, want hostB:7", got)
	}
	if len(b.Locations) != 1 {
		t.Fatalf("rebind should replace locations, got %d", len(b.Locations))
	}

	s.Unbind(n)
	if _, err := s.Resolve(n); !errors.Is(err, ErrNotBound) {
		t.Fatalf("Resolve after Unbind = %v, want ErrNotBound", err)
	}
	s.Unbind(n) // idempotent
}

func TestBindInvalidName(t *testing.T) {
	s := NewService()
	if err := s.Bind(Name{}, Location{Address: "x"}); err == nil {
		t.Fatal("Bind of zero name succeeded")
	}
	if err := s.BindReplica(Name{}, Location{Address: "x"}); err == nil {
		t.Fatal("BindReplica of zero name succeeded")
	}
}

func TestBindReplica(t *testing.T) {
	s := NewService()
	n := Resource("acme.org", "db/main")

	// Replica on an unbound name becomes the primary.
	if err := s.BindReplica(n, Location{Address: "a:1"}); err != nil {
		t.Fatalf("BindReplica: %v", err)
	}
	b, _ := s.Resolve(n)
	if got := b.Primary().Address; got != "a:1" {
		t.Fatalf("primary = %q, want a:1", got)
	}

	if err := s.BindReplica(n, Location{Address: "b:1"}); err != nil {
		t.Fatalf("BindReplica second: %v", err)
	}
	b, _ = s.Resolve(n)
	if len(b.Locations) != 2 || b.Locations[0].Address != "a:1" || b.Locations[1].Address != "b:1" {
		t.Fatalf("locations = %+v, want [a:1 b:1]", b.Locations)
	}
	if b.Epoch != 2 {
		t.Fatalf("epoch = %d, want 2", b.Epoch)
	}

	// Re-adding an existing address replaces in place (ServerName may
	// change), preserving order.
	srv := Server("acme.org", "s2")
	if err := s.BindReplica(n, Location{Address: "a:1", ServerName: srv}); err != nil {
		t.Fatalf("BindReplica replace: %v", err)
	}
	b, _ = s.Resolve(n)
	if len(b.Locations) != 2 {
		t.Fatalf("replace grew locations: %+v", b.Locations)
	}
	if b.Locations[0].ServerName != srv {
		t.Fatalf("in-place replace lost ServerName: %+v", b.Locations[0])
	}

	// Bind collapses back to a single location.
	if err := s.Bind(n, Location{Address: "c:1"}); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	b, _ = s.Resolve(n)
	if len(b.Locations) != 1 || b.Primary().Address != "c:1" {
		t.Fatalf("Bind did not replace replicas: %+v", b.Locations)
	}
}

func TestLookupCompat(t *testing.T) {
	s := NewService()
	n := Agent("acme.org", "a")
	if _, err := s.Lookup(n); !errors.Is(err, ErrNotBound) {
		t.Fatalf("Lookup unbound = %v, want ErrNotBound", err)
	}
	loc := Location{Address: "h:1"}
	if err := s.Bind(n, loc); err != nil {
		t.Fatal(err)
	}
	got, err := s.Lookup(n)
	if err != nil || got != loc {
		t.Fatalf("Lookup = %+v, %v; want %+v", got, err, loc)
	}
}

func TestSnapshotAndLenAcrossShards(t *testing.T) {
	s := NewService()
	const N = 200 // enough names to populate many shards
	for i := 0; i < N; i++ {
		n := Agent("acme.org", fmt.Sprintf("agents/a%03d", i))
		if err := s.Bind(n, Location{Address: fmt.Sprintf("h%d:1", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != N {
		t.Fatalf("Len = %d, want %d", s.Len(), N)
	}
	snap := s.Snapshot()
	if len(snap) != N {
		t.Fatalf("Snapshot len = %d, want %d", len(snap), N)
	}
	for i := 0; i < N; i++ {
		n := Agent("acme.org", fmt.Sprintf("agents/a%03d", i))
		if snap[n].Address != fmt.Sprintf("h%d:1", i) {
			t.Fatalf("snapshot[%s] = %+v", n, snap[n])
		}
	}
	// Spot-check shard spread: with 200 names over 32 shards an empty
	// shard is possible but every name landing in one shard is not.
	first := shardIndex(Agent("acme.org", "agents/a000"))
	spread := false
	for i := 1; i < N; i++ {
		if shardIndex(Agent("acme.org", fmt.Sprintf("agents/a%03d", i))) != first {
			spread = true
			break
		}
	}
	if !spread {
		t.Fatal("all names hashed to one shard")
	}
}

func TestNewServiceWithLease(t *testing.T) {
	s := NewServiceWithLease(50 * time.Millisecond)
	n := Agent("acme.org", "a")
	if err := s.Bind(n, Location{Address: "h:1"}); err != nil {
		t.Fatal(err)
	}
	b, _ := s.Resolve(n)
	if b.Lease != 50*time.Millisecond {
		t.Fatalf("Lease = %v, want 50ms", b.Lease)
	}
	if got := NewServiceWithLease(0).Lease(); got != DefaultLease {
		t.Fatalf("zero ttl lease = %v, want default", got)
	}
}

// TestServiceConcurrentStress exercises concurrent Bind/BindReplica/
// Unbind/Resolve on overlapping names under -race and asserts per-name
// epoch monotonicity as observed by readers.
func TestServiceConcurrentStress(t *testing.T) {
	s := NewService()
	const (
		workers = 8
		nNames  = 16
		iters   = 400
	)
	name := func(i int) Name { return Agent("acme.org", fmt.Sprintf("stress/a%d", i)) }

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lastEpoch := make(map[Name]uint64)
			for i := 0; i < iters; i++ {
				n := name((w + i) % nNames)
				switch i % 4 {
				case 0:
					if err := s.Bind(n, Location{Address: fmt.Sprintf("w%d:%d", w, i)}); err != nil {
						t.Errorf("Bind: %v", err)
						return
					}
				case 1:
					if err := s.BindReplica(n, Location{Address: fmt.Sprintf("r%d:%d", w, i)}); err != nil {
						t.Errorf("BindReplica: %v", err)
						return
					}
				case 2:
					b, err := s.Resolve(n)
					if err == nil {
						if b.Epoch < lastEpoch[n] {
							t.Errorf("epoch went backwards for %s: %d < %d", n, b.Epoch, lastEpoch[n])
							return
						}
						lastEpoch[n] = b.Epoch
					} else if !errors.Is(err, ErrNotBound) {
						t.Errorf("Resolve: %v", err)
						return
					}
				case 3:
					if i%16 == 3 { // unbind rarely so resolves mostly hit
						s.Unbind(n)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Converge: a final bind must win over everything above.
	n := name(0)
	if err := s.Bind(n, Location{Address: "final:1"}); err != nil {
		t.Fatal(err)
	}
	b, err := s.Resolve(n)
	if err != nil || b.Primary().Address != "final:1" {
		t.Fatalf("final Resolve = %+v, %v", b, err)
	}
}

// TestEpochMonotonicAcrossUnbind pins, on one goroutine, the ordering
// promise the stress test checks under contention: every mutation of a
// name yields a strictly greater epoch than any earlier binding of that
// name, including after the name was unbound and bound again.
func TestEpochMonotonicAcrossUnbind(t *testing.T) {
	s := NewService()
	n := Agent("acme.org", "rebind/a1")
	var last uint64
	check := func(step string) {
		t.Helper()
		b, err := s.Resolve(n)
		if err != nil {
			t.Fatalf("%s: Resolve: %v", step, err)
		}
		if b.Epoch <= last {
			t.Fatalf("%s: epoch %d not greater than previous %d", step, b.Epoch, last)
		}
		last = b.Epoch
	}

	if err := s.Bind(n, Location{Address: "a:1"}); err != nil {
		t.Fatal(err)
	}
	check("Bind")
	if err := s.Bind(n, Location{Address: "b:1"}); err != nil {
		t.Fatal(err)
	}
	check("Bind again")
	s.Unbind(n)
	if err := s.Bind(n, Location{Address: "c:1"}); err != nil {
		t.Fatal(err)
	}
	check("Bind after Unbind")
	s.Unbind(n)
	if err := s.BindReplica(n, Location{Address: "d:1"}); err != nil {
		t.Fatal(err)
	}
	check("BindReplica after Unbind")
}
