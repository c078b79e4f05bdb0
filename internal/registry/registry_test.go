package registry

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/domain"
	"repro/internal/names"
	"repro/internal/resource"
	"repro/internal/vm"
)

func testDef(path string) *resource.Def {
	return &resource.Def{
		ResourceImpl: resource.ResourceImpl{
			Name:  names.Resource("acme.com", path),
			Owner: names.Principal("acme.com", "admin"),
		},
		Path:    path,
		Methods: map[string]resource.Method{"ping": func([]vm.Value) (vm.Value, error) { return vm.S("pong"), nil }},
	}
}

func entry(path string, owner domain.ID) Entry {
	d := testDef(path)
	return Entry{Name: d.Name, Resource: d, AP: d, OwnerDomain: owner,
		OwnerPrincipal: names.Principal("acme.com", "admin")}
}

func TestRegisterLookup(t *testing.T) {
	r := New()
	e := entry("db", domain.ServerID)
	if err := r.Register(e); err != nil {
		t.Fatal(err)
	}
	got, err := r.Lookup(e.Name)
	if err != nil || got.Resource.Description() != e.Resource.Description() {
		t.Fatalf("%+v %v", got, err)
	}
	if r.Len() != 1 || len(r.List()) != 1 {
		t.Fatal("Len/List wrong")
	}
}

func TestRegisterRejectsBadEntries(t *testing.T) {
	r := New()
	if err := r.Register(Entry{}); err == nil {
		t.Fatal("zero entry accepted")
	}
	d := testDef("x")
	if err := r.Register(Entry{Name: d.Name}); err == nil {
		t.Fatal("entry without resource accepted")
	}
}

func TestRegisterDuplicate(t *testing.T) {
	r := New()
	e := entry("db", domain.ServerID)
	_ = r.Register(e)
	if err := r.Register(e); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("got %v", err)
	}
}

func TestLookupMissing(t *testing.T) {
	r := New()
	if _, err := r.Lookup(names.Resource("a", "b")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

func TestUnregisterOwnershipCheck(t *testing.T) {
	r := New()
	agentDom := domain.ID(5)
	e := entry("db", agentDom)
	_ = r.Register(e)
	// A different agent cannot remove it.
	if err := r.Unregister(domain.ID(9), e.Name); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("got %v", err)
	}
	// The owner can.
	if err := r.Unregister(agentDom, e.Name); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup(e.Name); !errors.Is(err, ErrNotFound) {
		t.Fatal("still present after unregister")
	}
}

func TestServerOverridesOwnership(t *testing.T) {
	r := New()
	e := entry("db", domain.ID(5))
	_ = r.Register(e)
	if err := r.Unregister(domain.ServerID, e.Name); err != nil {
		t.Fatal(err)
	}
}

func TestReplaceOwnershipCheck(t *testing.T) {
	r := New()
	agentDom := domain.ID(5)
	e := entry("db", agentDom)
	_ = r.Register(e)
	d2 := testDef("db")
	d2.Desc = "v2"
	if err := r.Replace(domain.ID(9), e.Name, d2, d2); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("got %v", err)
	}
	if err := r.Replace(agentDom, e.Name, d2, d2); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Lookup(e.Name)
	if got.Resource.Description() != "v2" {
		t.Fatal("replace did not take effect")
	}
	if err := r.Replace(agentDom, names.Resource("a", "nope"), d2, d2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

// TestRegisterExclusiveClaimsPolicyPath: an exclusive registration
// refuses the empty and wildcard paths and any path another entry holds,
// and of many concurrent claims on one fresh path exactly one wins.
func TestRegisterExclusiveClaimsPolicyPath(t *testing.T) {
	r := New()
	if err := r.Register(entry("counter", domain.ServerID)); err != nil {
		t.Fatal(err)
	}
	claim := func(name, path string) error {
		d := testDef(name)
		d.Path = path
		return r.RegisterExclusive(Entry{Name: d.Name, Resource: d, AP: d, OwnerDomain: 7})
	}
	for _, path := range []string{"counter", "*", ""} {
		if err := claim("mine", path); !errors.Is(err, ErrPathTaken) {
			t.Fatalf("claim of path %q: err = %v, want ErrPathTaken", path, err)
		}
	}
	if r.Len() != 1 {
		t.Fatalf("refused claims left entries: Len = %d", r.Len())
	}

	var wins atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch err := claim(fmt.Sprintf("box%d", i), "box"); {
			case err == nil:
				wins.Add(1)
			case !errors.Is(err, ErrPathTaken):
				t.Errorf("claim %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if wins.Load() != 1 || r.Len() != 2 {
		t.Fatalf("concurrent claims of one path: %d won, Len = %d; want 1 and 2", wins.Load(), r.Len())
	}
}
