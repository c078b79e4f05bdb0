package names

import (
	"errors"
	"testing"
)

func TestFederationRouting(t *testing.T) {
	f := NewFederation()
	acme := NewService()
	umn := NewService()
	if err := f.AddAuthority("acme.org", acme); err != nil {
		t.Fatal(err)
	}
	if err := f.AddAuthority("umn.edu", umn); err != nil {
		t.Fatal(err)
	}

	na := Agent("acme.org", "a")
	nu := Agent("umn.edu", "u")
	if err := f.Bind(na, Location{Address: "a:1"}); err != nil {
		t.Fatal(err)
	}
	if err := f.Bind(nu, Location{Address: "u:1"}); err != nil {
		t.Fatal(err)
	}

	// Each binding landed in (only) its authority's store.
	if acme.Len() != 1 || umn.Len() != 1 {
		t.Fatalf("store lens = %d, %d; want 1, 1", acme.Len(), umn.Len())
	}
	if b, err := f.Resolve(na); err != nil || b.Primary().Address != "a:1" {
		t.Fatalf("Resolve(%s) = %+v, %v", na, b, err)
	}
	if b, err := acme.Resolve(na); err != nil || b.Primary().Address != "a:1" {
		t.Fatalf("direct Resolve = %+v, %v", b, err)
	}

	// BindReplica routes too.
	if err := f.BindReplica(na, Location{Address: "a:2"}); err != nil {
		t.Fatal(err)
	}
	if b, _ := f.Resolve(na); len(b.Locations) != 2 {
		t.Fatalf("replica not routed: %+v", b)
	}
	f.UnbindReplica(na, "a:2")
	if b, _ := acme.Resolve(na); len(b.Locations) != 1 || b.Primary().Address != "a:1" {
		t.Fatalf("replica withdrawal not routed: %+v", b)
	}
	f.UnbindReplica(Agent("nowhere.net", "x"), "a:1")

	// Unbind routes; unbinding under an unknown authority is a no-op.
	f.Unbind(na)
	if _, err := f.Resolve(na); !errors.Is(err, ErrNotBound) {
		t.Fatalf("Resolve after Unbind = %v", err)
	}
	f.Unbind(Agent("nowhere.net", "x"))
}

func TestFederationNoAuthority(t *testing.T) {
	f := NewFederation()
	n := Agent("nowhere.net", "x")
	if err := f.Bind(n, Location{Address: "h:1"}); !errors.Is(err, ErrNoAuthority) {
		t.Fatalf("Bind = %v, want ErrNoAuthority", err)
	}
	if err := f.BindReplica(n, Location{Address: "h:1"}); !errors.Is(err, ErrNoAuthority) {
		t.Fatalf("BindReplica = %v, want ErrNoAuthority", err)
	}
	if _, err := f.Resolve(n); !errors.Is(err, ErrNoAuthority) {
		t.Fatalf("Resolve = %v, want ErrNoAuthority", err)
	}
}

func TestFederationAddAuthorityValidation(t *testing.T) {
	f := NewFederation()
	if err := f.AddAuthority("bad/authority", NewService()); err == nil {
		t.Fatal("malformed authority accepted")
	}
	if err := f.AddAuthority("acme.org", nil); err == nil {
		t.Fatal("nil service accepted")
	}
	// Replacement wins.
	s1, s2 := NewService(), NewService()
	if err := f.AddAuthority("acme.org", s1); err != nil {
		t.Fatal(err)
	}
	if err := f.AddAuthority("acme.org", s2); err != nil {
		t.Fatal(err)
	}
	n := Agent("acme.org", "a")
	if err := f.Bind(n, Location{Address: "h:1"}); err != nil {
		t.Fatal(err)
	}
	if s1.Len() != 0 || s2.Len() != 1 {
		t.Fatalf("replacement did not take: lens %d, %d", s1.Len(), s2.Len())
	}
	if got := len(f.Authorities()); got != 1 {
		t.Fatalf("Authorities = %d, want 1", got)
	}
}

// TestFederationDirectory pins the compile-time contract that both the
// single store and the federation satisfy Directory.
func TestFederationDirectory(t *testing.T) {
	var _ Directory = NewService()
	var _ Directory = NewFederation()
}
