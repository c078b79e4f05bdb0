package names

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is an injectable nanosecond clock for lease tests.
type fakeClock struct{ now atomic.Int64 }

func (c *fakeClock) Now() int64              { return c.now.Load() }
func (c *fakeClock) Advance(d time.Duration) { c.now.Add(int64(d)) }
func newResolverClock() (*fakeClock, ResolverConfig) {
	c := &fakeClock{}
	c.now.Store(1) // nonzero so expires=0 entries are expired
	return c, ResolverConfig{Now: c.Now}
}

// waitFor polls until cond holds or the deadline passes; background
// refreshes are asynchronous, so tests observe their effect this way.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestResolverMissThenHit(t *testing.T) {
	auth := NewService()
	n := Agent("acme.org", "a")
	loc := Location{Address: "h1:1"}
	if err := auth.Bind(n, loc); err != nil {
		t.Fatal(err)
	}
	_, cfg := newResolverClock()
	r := NewResolver(auth, cfg)

	got, err := r.Resolve(n)
	if err != nil || got != loc {
		t.Fatalf("first Resolve = %+v, %v", got, err)
	}
	if st := r.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after miss: %+v", st)
	}

	// Second resolve is a cache hit; an authority-side rebind inside
	// the lease is deliberately not observed yet.
	if err := auth.Bind(n, Location{Address: "h2:1"}); err != nil {
		t.Fatal(err)
	}
	got, err = r.Resolve(n)
	if err != nil || got != loc {
		t.Fatalf("cached Resolve = %+v, %v; want stale %+v", got, err, loc)
	}
	if st := r.Stats(); st.Hits != 1 {
		t.Fatalf("after hit: %+v", st)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestResolverLeaseExpiryRefreshesAsync(t *testing.T) {
	auth := NewService()
	n := Agent("acme.org", "a")
	if err := auth.Bind(n, Location{Address: "old:1"}); err != nil {
		t.Fatal(err)
	}
	clk, cfg := newResolverClock()
	r := NewResolver(auth, cfg)
	if _, err := r.Resolve(n); err != nil {
		t.Fatal(err)
	}

	// Rebind at the authority (epoch bump), then expire the lease.
	if err := auth.Bind(n, Location{Address: "new:1"}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(DefaultLease + time.Nanosecond)

	// The expired entry is served stale once while a refresh runs.
	got, err := r.Resolve(n)
	if err != nil || got.Address != "old:1" {
		t.Fatalf("stale serve = %+v, %v; want old:1", got, err)
	}
	if st := r.Stats(); st.StaleServes == 0 || st.Refreshes == 0 {
		t.Fatalf("expected stale serve + refresh, got %+v", st)
	}

	// The async refresh converges on the authority's answer (and the
	// bumped epoch).
	waitFor(t, func() bool {
		got, err := r.Resolve(n)
		return err == nil && got.Address == "new:1"
	})
}

func TestResolverNotBoundInvalidates(t *testing.T) {
	auth := NewService()
	n := Agent("acme.org", "a")
	if err := auth.Bind(n, Location{Address: "h:1"}); err != nil {
		t.Fatal(err)
	}
	clk, cfg := newResolverClock()
	r := NewResolver(auth, cfg)
	if _, err := r.Resolve(n); err != nil {
		t.Fatal(err)
	}

	auth.Unbind(n)
	clk.Advance(DefaultLease + time.Nanosecond)
	// Stale serve kicks a refresh; the authority's not-bound answer
	// removes the entry, so resolution converges to ErrNotBound.
	if _, err := r.Resolve(n); err != nil {
		t.Fatalf("stale serve should still answer: %v", err)
	}
	waitFor(t, func() bool {
		_, err := r.Resolve(n)
		return errors.Is(err, ErrNotBound)
	})
	if r.Len() != 0 {
		t.Fatalf("entry not removed, Len = %d", r.Len())
	}
}

func TestResolverInvalidate(t *testing.T) {
	auth := NewService()
	n := Agent("acme.org", "a")
	if err := auth.Bind(n, Location{Address: "h1:1"}); err != nil {
		t.Fatal(err)
	}
	_, cfg := newResolverClock()
	r := NewResolver(auth, cfg)
	if _, err := r.Resolve(n); err != nil {
		t.Fatal(err)
	}
	if err := auth.Bind(n, Location{Address: "h2:1"}); err != nil {
		t.Fatal(err)
	}
	// Invalidate (as the dispatch path does after a failed send)
	// forces the next resolve through the authority even though the
	// lease has not expired.
	r.Invalidate(n)
	got, err := r.Resolve(n)
	if err != nil || got.Address != "h2:1" {
		t.Fatalf("post-invalidate Resolve = %+v, %v", got, err)
	}
	if st := r.Stats(); st.Invalidations != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestResolverHintSemantics is the table-driven specification of lease
// and forwarding-hint behavior.
func TestResolverHintSemantics(t *testing.T) {
	n := Agent("acme.org", "a")
	authLoc := Location{Address: "auth:1"}
	hintLoc := Location{Address: "hint:1"}

	cases := []struct {
		name string
		// setup arranges authority and resolver state.
		setup func(t *testing.T, auth *Service, r *Resolver, clk *fakeClock)
		// wantAddr is the address Resolve must answer afterwards.
		wantAddr string
		// wantHintServe says the answer must be counted as a hint
		// serve (vs authoritative hit/miss).
		wantHintServe bool
	}{
		{
			name: "hint on empty cache is served",
			setup: func(t *testing.T, auth *Service, r *Resolver, clk *fakeClock) {
				r.Observe(n, hintLoc)
			},
			wantAddr:      "hint:1",
			wantHintServe: true,
		},
		{
			name: "hint does not displace lease-valid authoritative entry with same location",
			setup: func(t *testing.T, auth *Service, r *Resolver, clk *fakeClock) {
				if err := auth.Bind(n, authLoc); err != nil {
					t.Fatal(err)
				}
				if _, err := r.Resolve(n); err != nil {
					t.Fatal(err)
				}
				r.Observe(n, authLoc) // redundant hint
			},
			wantAddr:      "auth:1",
			wantHintServe: false,
		},
		{
			name: "hint with new location overrides cached entry",
			setup: func(t *testing.T, auth *Service, r *Resolver, clk *fakeClock) {
				if err := auth.Bind(n, authLoc); err != nil {
					t.Fatal(err)
				}
				if _, err := r.Resolve(n); err != nil {
					t.Fatal(err)
				}
				r.Observe(n, hintLoc) // the entity moved; ack told us
			},
			wantAddr:      "hint:1",
			wantHintServe: true,
		},
		{
			name: "hint replaces expired entry",
			setup: func(t *testing.T, auth *Service, r *Resolver, clk *fakeClock) {
				if err := auth.Bind(n, authLoc); err != nil {
					t.Fatal(err)
				}
				if _, err := r.Resolve(n); err != nil {
					t.Fatal(err)
				}
				clk.Advance(DefaultLease + time.Nanosecond)
				r.Observe(n, hintLoc)
			},
			wantAddr:      "hint:1",
			wantHintServe: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			auth := NewService()
			clk, cfg := newResolverClock()
			r := NewResolver(auth, cfg)
			tc.setup(t, auth, r, clk)
			before := r.Stats()
			got, err := r.Resolve(n)
			if err != nil {
				t.Fatalf("Resolve: %v", err)
			}
			if got.Address != tc.wantAddr {
				t.Fatalf("Resolve = %q, want %q", got.Address, tc.wantAddr)
			}
			after := r.Stats()
			if hinted := after.HintServes > before.HintServes; hinted != tc.wantHintServe {
				t.Fatalf("hint-served = %v, want %v (stats %+v)", hinted, tc.wantHintServe, after)
			}
		})
	}
}

func TestResolverHintReplacedByAuthoritativeRefresh(t *testing.T) {
	auth := NewService()
	n := Agent("acme.org", "a")
	if err := auth.Bind(n, Location{Address: "auth:1"}); err != nil {
		t.Fatal(err)
	}
	clk, cfg := newResolverClock()
	r := NewResolver(auth, cfg)
	r.Observe(n, Location{Address: "hint:1"})

	// Expire the hint; the stale serve still answers hint:1 but the
	// refresh replaces it with the authority's binding.
	clk.Advance(DefaultLease + time.Nanosecond)
	if got, err := r.Resolve(n); err != nil || got.Address != "hint:1" {
		t.Fatalf("stale hint serve = %+v, %v", got, err)
	}
	waitFor(t, func() bool {
		got, err := r.Resolve(n)
		return err == nil && got.Address == "auth:1"
	})
}

func TestResolveAllRanking(t *testing.T) {
	auth := NewService()
	n := Resource("acme.org", "db")
	for _, a := range []string{"far:1", "near:1", "mid:1", "unknown:1"} {
		if err := auth.BindReplica(n, Location{Address: a}); err != nil {
			t.Fatal(err)
		}
	}
	dist := map[string]time.Duration{
		"far:1":  30 * time.Millisecond,
		"near:1": time.Millisecond,
		"mid:1":  10 * time.Millisecond,
		// unknown:1 absent: unmeasured links sort last.
	}
	_, cfg := newResolverClock()
	cfg.Self = "self:1"
	cfg.Proximity = func(from, to string) time.Duration {
		if from != "self:1" {
			t.Errorf("Proximity from = %q", from)
		}
		return dist[to]
	}
	r := NewResolver(auth, cfg)

	locs, err := r.ResolveAll(n)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"near:1", "mid:1", "far:1", "unknown:1"}
	if len(locs) != len(want) {
		t.Fatalf("got %d locations, want %d", len(locs), len(want))
	}
	for i, w := range want {
		if locs[i].Address != w {
			t.Fatalf("rank[%d] = %q, want %q (all %+v)", i, locs[i].Address, w, locs)
		}
	}

	// Without a proximity function, authority order is preserved.
	r2 := NewResolver(auth, ResolverConfig{})
	locs2, err := r2.ResolveAll(n)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"far:1", "near:1", "mid:1", "unknown:1"}
	for i, w := range wantOrder {
		if locs2[i].Address != w {
			t.Fatalf("unranked[%d] = %q, want %q", i, locs2[i].Address, w)
		}
	}
}

func TestResolverFlush(t *testing.T) {
	auth := NewService()
	n := Agent("acme.org", "a")
	if err := auth.Bind(n, Location{Address: "h:1"}); err != nil {
		t.Fatal(err)
	}
	_, cfg := newResolverClock()
	r := NewResolver(auth, cfg)
	if _, err := r.Resolve(n); err != nil {
		t.Fatal(err)
	}
	r.Flush()
	if r.Len() != 0 {
		t.Fatalf("Len after Flush = %d", r.Len())
	}
	if _, err := r.Resolve(n); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Misses != 2 {
		t.Fatalf("misses = %d, want 2", st.Misses)
	}
}

// TestResolverConcurrentStress drives Resolve/Observe/Invalidate
// against a mutating authority with lease expiry under -race, then
// asserts convergence to the authority's final answer.
func TestResolverConcurrentStress(t *testing.T) {
	auth := NewServiceWithLease(100 * time.Microsecond) // tight leases: constant expiry
	const (
		workers = 8
		nNames  = 8
		iters   = 300
	)
	name := func(i int) Name { return Agent("acme.org", fmt.Sprintf("stress/a%d", i)) }
	for i := 0; i < nNames; i++ {
		if err := auth.Bind(name(i), Location{Address: "seed:1"}); err != nil {
			t.Fatal(err)
		}
	}
	r := NewResolver(auth, ResolverConfig{}) // real clock so leases truly expire

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := name((w + i) % nNames)
				switch i % 5 {
				case 0:
					if err := auth.Bind(n, Location{Address: fmt.Sprintf("w%d:%d", w, i)}); err != nil {
						t.Errorf("Bind: %v", err)
						return
					}
				case 1:
					r.Observe(n, Location{Address: fmt.Sprintf("hint%d:%d", w, i)})
				case 2:
					r.Invalidate(n)
				default:
					if _, err := r.Resolve(n); err != nil && !errors.Is(err, ErrNotBound) {
						t.Errorf("Resolve: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Convergence: bind a final location, invalidate the cache, and
	// every subsequent resolve must see it.
	for i := 0; i < nNames; i++ {
		n := name(i)
		if err := auth.Bind(n, Location{Address: "final:1"}); err != nil {
			t.Fatal(err)
		}
		r.Invalidate(n)
		got, err := r.Resolve(n)
		if err != nil || got.Address != "final:1" {
			t.Fatalf("converged Resolve(%s) = %+v, %v", n, got, err)
		}
	}
}

// sameShard returns two distinct names owned by one shard.
func sameShard() (Name, Name) {
	a := Agent("acme.org", "sweep/a")
	for i := 0; ; i++ {
		b := Agent("acme.org", fmt.Sprintf("sweep/b%d", i))
		if shardIndex(b) == shardIndex(a) {
			return a, b
		}
	}
}

// cached reports whether n has an entry in r's published cache.
func (r *Resolver) cached(n Name) bool {
	_, ok := r.tab.shard(n).snap.Load().m[n]
	return ok
}

// TestResolverSweep: a write to a shard drops the shard's entries whose
// lease ended at least one lease ago, and keeps the rest, so an expired
// entry is still served stale (once, with a refresh) during the lease
// after its expiry.
func TestResolverSweep(t *testing.T) {
	a, b := sameShard()
	hint := Location{Address: "a:1"}

	t.Run("kept for one lease after expiry", func(t *testing.T) {
		auth := NewService()
		if err := auth.Bind(a, Location{Address: "auth:1"}); err != nil {
			t.Fatal(err)
		}
		clk, cfg := newResolverClock()
		r := NewResolver(auth, cfg)
		r.Observe(a, hint)
		clk.Advance(2*DefaultLease - 1) // one nanosecond short of the drop
		r.Observe(b, Location{Address: "b:1"})
		if !r.cached(a) || r.Len() != 2 {
			t.Fatalf("entry inside its grace lease was swept (Len %d)", r.Len())
		}
		if got, err := r.Resolve(a); err != nil || got != hint {
			t.Fatalf("stale serve = %+v, %v; want %+v", got, err, hint)
		}
		if st := r.Stats(); st.StaleServes != 1 {
			t.Fatalf("stats = %+v, want one stale serve", st)
		}
	})

	t.Run("dropped one lease after expiry", func(t *testing.T) {
		clk, cfg := newResolverClock()
		r := NewResolver(NewService(), cfg)
		r.Observe(a, hint)
		clk.Advance(2 * DefaultLease)
		if !r.cached(a) {
			t.Fatal("entry dropped before any write to its shard")
		}
		r.Observe(b, Location{Address: "b:1"})
		if r.cached(a) || !r.cached(b) || r.Len() != 1 {
			t.Fatalf("after the sweep: a cached %v, b cached %v, Len %d; want false, true, 1",
				r.cached(a), r.cached(b), r.Len())
		}
	})

	t.Run("stream stays bounded", func(t *testing.T) {
		// 10,000 distinct names observed at 250 per lease, as a busy
		// server sends agents: the cache holds about the last two
		// leases' worth (500), not every name ever observed.
		clk, cfg := newResolverClock()
		r := NewResolver(NewService(), cfg)
		for i := 0; i < 10_000; i++ {
			clk.Advance(DefaultLease / 250)
			r.Observe(Agent("acme.org", fmt.Sprintf("stream/a%d", i)), hint)
		}
		if n := r.Len(); n < 500 || n > 750 {
			t.Fatalf("Len = %d after a 10,000-name stream, want 500..750", n)
		}
	})
}

// BenchmarkResolverObserve measures the ack-path rebind on a resolver
// that has already observed N distinct agent names, arriving at 250 per
// lease as a busy server sends agents. Each op observes the next name
// of the stream. Entries are swept a lease after they expire, so the
// cache holds about two leases' worth of names and the cost of an
// Observe must not depend on N: ns/op and B/op at 1k and 10k names
// stay within 2x of each other.
func BenchmarkResolverObserve(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("names=%dk", n/1000), func(b *testing.B) {
			pool := make([]Name, n)
			for i := range pool {
				pool[i] = Agent("acme.org", fmt.Sprintf("agents/a%d", i))
			}
			clk, cfg := newResolverClock()
			r := NewResolver(NewService(), cfg)
			loc := Location{Address: "w1:7000"}
			observe := func(i int) {
				clk.Advance(DefaultLease / 250)
				r.Observe(pool[i%n], loc)
			}
			for i := range pool {
				observe(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				observe(i)
			}
		})
	}
}
