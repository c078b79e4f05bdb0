package names

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrNoAuthority is returned when a name's Authority component is not
// served by any registered authoritative store. It is a permanent
// condition for the sender: retrying the same name against the same
// federation cannot succeed until an operator registers the authority.
var ErrNoAuthority = errors.New("names: no authoritative store for authority")

// authorityTable is one immutable published generation of the
// authority → store routing map.
type authorityTable struct {
	m map[string]*Service
}

// Federation partitions naming authority across stores by the name's
// Authority component (paper §4: each naming authority manages its own
// portion of the global name space). Routing is lock-free; registering
// an authority copies the routing table under a writer mutex, so
// membership changes never stall resolution.
//
// Federation implements Directory, so servers and resolvers are
// indifferent to whether they talk to one authority or many.
type Federation struct {
	mu   sync.Mutex // serializes writers only
	snap atomic.Pointer[authorityTable]
}

// NewFederation returns a federation with no registered authorities.
func NewFederation() *Federation {
	f := &Federation{}
	f.snap.Store(&authorityTable{m: make(map[string]*Service)})
	return f
}

// AddAuthority registers svc as the authoritative store for all names
// whose Authority component equals authority, replacing any previous
// registration.
func (f *Federation) AddAuthority(authority string, svc *Service) error {
	if !validComponent(authority) {
		return fmt.Errorf("%w: %q", ErrBadAuthority, authority)
	}
	if svc == nil {
		return errors.New("names: AddAuthority: nil service")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.snap.Load().m
	m := make(map[string]*Service, len(cur)+1)
	for a, s := range cur {
		m[a] = s
	}
	m[authority] = svc
	f.snap.Store(&authorityTable{m: m})
	return nil
}

// Authorities lists the registered authority components.
func (f *Federation) Authorities() []string {
	m := f.snap.Load().m
	out := make([]string, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	return out
}

// route finds the authoritative store for a name.
func (f *Federation) route(n Name) (*Service, error) {
	svc, ok := f.snap.Load().m[n.Authority]
	if !ok {
		return nil, fmt.Errorf("%w: %q (name %s)", ErrNoAuthority, n.Authority, n)
	}
	return svc, nil
}

// Bind routes to the name's authority and binds there.
func (f *Federation) Bind(n Name, loc Location) error {
	svc, err := f.route(n)
	if err != nil {
		return err
	}
	return svc.Bind(n, loc)
}

// BindReplica routes to the name's authority and adds a replica there.
func (f *Federation) BindReplica(n Name, loc Location) error {
	svc, err := f.route(n)
	if err != nil {
		return err
	}
	return svc.BindReplica(n, loc)
}

// UnbindReplica routes to the name's authority and withdraws one
// location there; like Unbind, a name under an unregistered authority
// is a no-op.
func (f *Federation) UnbindReplica(n Name, address string) {
	svc, err := f.route(n)
	if err != nil {
		return
	}
	svc.UnbindReplica(n, address)
}

// Unbind routes to the name's authority; unbinding a name under an
// unregistered authority is a no-op, matching Unbind's idempotence.
func (f *Federation) Unbind(n Name) {
	svc, err := f.route(n)
	if err != nil {
		return
	}
	svc.Unbind(n)
}

// Resolve routes to the name's authority and resolves there.
func (f *Federation) Resolve(n Name) (Binding, error) {
	svc, err := f.route(n)
	if err != nil {
		return Binding{}, err
	}
	return svc.Resolve(n)
}
