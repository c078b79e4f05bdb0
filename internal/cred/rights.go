// Package cred implements agent credentials (§5.2 of the paper): a
// tamperproof association between an agent's identity, its owner, its
// creator, the owner's public-key certificate, and the (possibly
// restricted) set of rights delegated to the agent, with an expiration
// time. It also implements cascaded delegation, in which a server
// forwards an agent "like a subcontract", further restricting its
// rights (the paper cites Sollins' cascaded authentication and Neuman's
// proxy-based delegation for this).
package cred

import (
	"sort"
	"strings"
)

// A Right names one permission in "resource-path.method" form, e.g.
// "db/quotes.get". Two wildcards are supported: "*" grants everything
// and "<resource-path>.*" grants every method of one resource. Rights
// are compared textually; policy (internal/policy) decides what a right
// means for a concrete resource.
type Right string

// Wildcard rights.
const (
	All Right = "*"
)

// Method splits a right into its resource and method parts. A right
// with no dot is treated as a resource-wide grant.
func (r Right) parts() (resource, method string) {
	s := string(r)
	i := strings.LastIndex(s, ".")
	if i < 0 {
		return s, "*"
	}
	return s[:i], s[i+1:]
}

// Implies reports whether holding r implies holding other, accounting
// for wildcards. Implies is reflexive and transitive.
func (r Right) Implies(other Right) bool {
	if r == All || r == other {
		return true
	}
	rRes, rMeth := r.parts()
	oRes, oMeth := other.parts()
	if rRes != oRes && rRes != "*" {
		return false
	}
	return rMeth == "*" || rMeth == oMeth
}

// RightSet is an immutable-by-convention set of rights. The zero value
// is the empty set (no rights).
type RightSet struct {
	rights map[Right]bool
}

// NewRightSet builds a set from the given rights, deduplicating.
func NewRightSet(rs ...Right) RightSet {
	m := make(map[Right]bool, len(rs))
	for _, r := range rs {
		if r != "" {
			m[r] = true
		}
	}
	return RightSet{rights: m}
}

// Permits reports whether the set contains a right implying r.
func (s RightSet) Permits(r Right) bool {
	if s.rights[r] {
		return true
	}
	for held := range s.rights {
		if held.Implies(r) {
			return true
		}
	}
	return false
}

// Restrict returns the set of rights permitted by both s and other:
// every explicit right of either side that the other side also permits.
// Restrict is the monotone-narrowing operation used when delegating: a
// delegate can never hold more than the delegator.
func (s RightSet) Restrict(other RightSet) RightSet {
	out := make(map[Right]bool)
	for r := range s.rights {
		if other.Permits(r) {
			out[r] = true
		}
	}
	for r := range other.rights {
		if s.Permits(r) {
			out[r] = true
		}
	}
	return RightSet{rights: out}
}

// SubsetOf reports whether every right in s is permitted by other.
func (s RightSet) SubsetOf(other RightSet) bool {
	for r := range s.rights {
		if !other.Permits(r) {
			return false
		}
	}
	return true
}

// IsEmpty reports whether the set permits nothing.
func (s RightSet) IsEmpty() bool { return len(s.rights) == 0 }

// Len returns the number of explicit rights in the set.
func (s RightSet) Len() int { return len(s.rights) }

// List returns the explicit rights in sorted order (for deterministic
// serialization and signing).
func (s RightSet) List() []Right {
	out := make([]Right, 0, len(s.rights))
	for r := range s.rights {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the set as a comma-separated sorted list.
func (s RightSet) String() string {
	rs := s.List()
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = string(r)
	}
	return strings.Join(parts, ",")
}

// GobEncode serializes the set via its canonical textual form, so
// credentials (which carry right sets) can be gob-encoded.
func (s RightSet) GobEncode() ([]byte, error) {
	return []byte(s.String()), nil
}

// GobDecode implements gob.GobDecoder.
func (s *RightSet) GobDecode(data []byte) error {
	*s = ParseRightSet(string(data))
	return nil
}

// ParseRightSet parses the String form; empty input yields the empty set.
func ParseRightSet(s string) RightSet {
	if s == "" {
		return NewRightSet()
	}
	parts := strings.Split(s, ",")
	rs := make([]Right, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			rs = append(rs, Right(p))
		}
	}
	return NewRightSet(rs...)
}

// ParseCanonicalRightSet parses s like ParseRightSet and also reports
// whether s is exactly the String form of the parsed set: non-empty
// rights without surrounding space, in strictly increasing order. The
// agent codec carries right sets in that form and accepts no other
// spelling, so a decoded set re-encodes to the same bytes.
func ParseCanonicalRightSet(s string) (RightSet, bool) {
	return ParseRightSet(s), canonicalRights(s)
}

func canonicalRights(s string) bool {
	prev := ""
	for i := 0; s != ""; i++ {
		r, rest, found := strings.Cut(s, ",")
		if r == "" || r != strings.TrimSpace(r) || (i > 0 && r <= prev) || (found && rest == "") {
			return false
		}
		prev, s = r, rest
	}
	return true
}
