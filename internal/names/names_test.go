package names

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewValid(t *testing.T) {
	n, err := New(KindAgent, "umn.edu", "shoppers/a17")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got, want := n.String(), "ajanta:agent:umn.edu/shoppers/a17"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestNewRejectsBadKind(t *testing.T) {
	if _, err := New(Kind("gizmo"), "a", "b"); err == nil {
		t.Fatal("want error for unknown kind")
	}
}

func TestNewRejectsBadAuthority(t *testing.T) {
	for _, auth := range []string{"", "has space", "has:colon", "has/slash"} {
		if _, err := New(KindServer, auth, "x"); err == nil {
			t.Errorf("authority %q: want error", auth)
		}
	}
}

func TestNewRejectsBadPath(t *testing.T) {
	for _, p := range []string{"", "/lead", "trail/", "a//b", "sp ace"} {
		if _, err := New(KindResource, "org", p); err == nil {
			t.Errorf("path %q: want error", p)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []Name{
		Agent("umn.edu", "a1"),
		Server("cs.umn.edu", "host-3/srv_0"),
		Resource("acme.com", "db/quotes"),
		Principal("umn.edu", "tripathi"),
		Group("umn.edu", "faculty"),
	}
	for _, n := range cases {
		got, err := Parse(n.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", n.String(), err)
		}
		if got != n {
			t.Fatalf("Parse(%q) = %+v, want %+v", n.String(), got, n)
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, s := range []string{
		"",
		"agent:umn.edu/a",         // no scheme
		"ajanta:agent:umn.edu",    // no path separator
		"ajanta:bogus:umn.edu/a",  // bad kind
		"http:agent:umn.edu/a",    // wrong scheme
		"ajanta:agent:/a",         // empty authority
		"ajanta:agent:umn.edu/",   // empty path
		"ajanta:agent:umn.edu/a/", // trailing slash
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): want error", s)
		}
	}
}

// randomName builds a valid Name from a PRNG, for property testing.
func randomName(r *rand.Rand) Name {
	kinds := []Kind{KindAgent, KindServer, KindResource, KindPrincipal, KindGroup}
	comp := func() string {
		const alpha = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.-_"
		n := 1 + r.Intn(10)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alpha[r.Intn(len(alpha))])
		}
		return b.String()
	}
	segs := 1 + r.Intn(3)
	parts := make([]string, segs)
	for i := range parts {
		parts[i] = comp()
	}
	return Name{Kind: kinds[r.Intn(len(kinds))], Authority: comp(), Path: strings.Join(parts, "/")}
}

// Property: every valid name round-trips through its textual form.
func TestQuickParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		n := randomName(rand.New(rand.NewSource(seed)))
		if n.Valid() != nil {
			return false
		}
		got, err := Parse(n.String())
		return err == nil && got == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestServiceBindLookup(t *testing.T) {
	s := NewService()
	n := Agent("umn.edu", "a1")
	srv := Server("umn.edu", "s1")
	if err := s.Bind(n, Location{Address: "10.0.0.1:7000", ServerName: srv}); err != nil {
		t.Fatal(err)
	}
	b, err := s.Resolve(n)
	if err != nil {
		t.Fatal(err)
	}
	if loc := b.Primary(); loc != (Location{Address: "10.0.0.1:7000", ServerName: srv}) {
		t.Fatalf("Resolve primary = %+v", loc)
	}
}

func TestServiceLookupMissing(t *testing.T) {
	s := NewService()
	if _, err := s.Resolve(Agent("x", "y")); !errors.Is(err, ErrNotBound) {
		t.Fatalf("Resolve unbound = %v, want ErrNotBound", err)
	}
}

func TestServiceRebindReplaces(t *testing.T) {
	s := NewService()
	n := Agent("umn.edu", "a1")
	_ = s.Bind(n, Location{Address: "first"})
	_ = s.Bind(n, Location{Address: "second"})
	b, err := s.Resolve(n)
	if err != nil || b.Primary().Address != "second" {
		t.Fatalf("got %+v, %v", b, err)
	}
}

func TestServiceUnbind(t *testing.T) {
	s := NewService()
	n := Agent("umn.edu", "a1")
	_ = s.Bind(n, Location{Address: "addr"})
	s.Unbind(n)
	if _, err := s.Resolve(n); err == nil {
		t.Fatal("want error after Unbind")
	}
	s.Unbind(n) // no-op, must not panic
}

func TestServiceBindRejectsInvalid(t *testing.T) {
	s := NewService()
	if err := s.Bind(Name{}, Location{}); err == nil {
		t.Fatal("want error for zero name")
	}
}

func TestServiceSnapshotIsCopy(t *testing.T) {
	s := NewService()
	n := Agent("umn.edu", "a1")
	_ = s.Bind(n, Location{Address: "addr"})
	snap := s.Snapshot()
	if !reflect.DeepEqual(snap, map[Name]Location{n: {Address: "addr"}}) {
		t.Fatalf("snapshot = %+v", snap)
	}
	snap[n] = Location{Address: "mutated"}
	b, _ := s.Resolve(n)
	if b.Primary().Address != "addr" {
		t.Fatal("snapshot mutation leaked into service")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestServiceConcurrentAccess(t *testing.T) {
	s := NewService()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 200; j++ {
				n := Agent("umn.edu", "a"+string(rune('a'+i)))
				_ = s.Bind(n, Location{Address: "x"})
				_, _ = s.Resolve(n)
				s.Unbind(n)
			}
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}
