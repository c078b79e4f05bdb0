package cred

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRightImplies(t *testing.T) {
	cases := []struct {
		holder, want Right
		implies      bool
	}{
		{"db/quotes.get", "db/quotes.get", true},
		{"db/quotes.get", "db/quotes.put", false},
		{"db/quotes.*", "db/quotes.get", true},
		{"db/quotes.*", "db/other.get", false},
		{"*", "anything.at.all", true},
		{"db/quotes", "db/quotes.get", true}, // bare resource = resource-wide
		{"db/quotes.get", "db/quotes.*", false},
		{"db/quotes.get", "db/quotes", false},
	}
	for _, c := range cases {
		if got := c.holder.Implies(c.want); got != c.implies {
			t.Errorf("%q implies %q = %v, want %v", c.holder, c.want, got, c.implies)
		}
	}
}

func TestRightSetPermits(t *testing.T) {
	s := NewRightSet("db/quotes.get", "buf.*")
	for _, r := range []Right{"db/quotes.get", "buf.put", "buf.get"} {
		if !s.Permits(r) {
			t.Errorf("set should permit %q", r)
		}
	}
	for _, r := range []Right{"db/quotes.put", "other.get"} {
		if s.Permits(r) {
			t.Errorf("set should not permit %q", r)
		}
	}
}

func TestRightSetRestrict(t *testing.T) {
	a := NewRightSet("buf.*", "db.get")
	b := NewRightSet("buf.get", "db.*")
	got := a.Restrict(b)
	if !got.Permits("buf.get") || !got.Permits("db.get") {
		t.Fatalf("restrict lost common rights: %v", got)
	}
	if got.Permits("buf.put") {
		t.Fatal("restrict kept buf.put, permitted by only one side")
	}
}

func TestRightSetSubsetOf(t *testing.T) {
	small := NewRightSet("buf.get")
	big := NewRightSet("buf.*")
	if !small.SubsetOf(big) {
		t.Fatal("buf.get should be subset of buf.*")
	}
	if big.SubsetOf(small) {
		t.Fatal("buf.* should not be subset of buf.get")
	}
	if !NewRightSet().SubsetOf(small) {
		t.Fatal("empty set is subset of everything")
	}
}

func TestRightSetStringRoundTrip(t *testing.T) {
	s := NewRightSet("b.x", "a.y", "c.*")
	got := ParseRightSet(s.String())
	if got.String() != s.String() {
		t.Fatalf("round trip: %q != %q", got.String(), s.String())
	}
	if s.String() != "a.y,b.x,c.*" {
		t.Fatalf("String not sorted: %q", s.String())
	}
	if !ParseRightSet("").IsEmpty() {
		t.Fatal("empty parse should be empty set")
	}
}

// randomRightSet builds a small random right set over a fixed vocabulary.
func randomRightSet(r *rand.Rand) RightSet {
	vocab := []Right{"a.x", "a.y", "a.*", "b.x", "b.*", "*", "c.z"}
	n := r.Intn(4)
	rs := make([]Right, n)
	for i := range rs {
		rs[i] = vocab[r.Intn(len(vocab))]
	}
	return NewRightSet(rs...)
}

// Property: Restrict is commutative (as a permission predicate) and
// never grants a right that either input denies.
func TestQuickRestrictSound(t *testing.T) {
	probe := []Right{"a.x", "a.y", "b.x", "c.z", "d.q"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomRightSet(rng), randomRightSet(rng)
		ab, ba := a.Restrict(b), b.Restrict(a)
		for _, p := range probe {
			if ab.Permits(p) != ba.Permits(p) {
				return false // not commutative
			}
			if ab.Permits(p) && !(a.Permits(p) && b.Permits(p)) {
				return false // escalation
			}
			if a.Permits(p) && b.Permits(p) && !ab.Permits(p) {
				return false // lost a common right
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: Restrict with self is identity on the permission predicate,
// and the result is always a subset of both inputs.
func TestQuickRestrictIdempotentSubset(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomRightSet(rng), randomRightSet(rng)
		self := a.Restrict(a)
		for _, p := range []Right{"a.x", "b.x", "c.z"} {
			if self.Permits(p) != a.Permits(p) {
				return false
			}
		}
		ab := a.Restrict(b)
		return ab.SubsetOf(a) && ab.SubsetOf(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: a right set's String form parses back as canonical with
// identical permission semantics — the form the agent codec carries
// (and signs) across migration.
func TestQuickRightSetStringRoundTrip(t *testing.T) {
	probe := []Right{"a.x", "a.*", "b.y", "*", "c"}
	f := func(seed int64) bool {
		rs := randomRightSet(rand.New(rand.NewSource(seed)))
		got, ok := ParseCanonicalRightSet(rs.String())
		if !ok {
			return false
		}
		for _, p := range probe {
			if got.Permits(p) != rs.Permits(p) {
				return false
			}
		}
		return got.String() == rs.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestParseCanonicalRightSet: only the exact String form is canonical.
func TestParseCanonicalRightSet(t *testing.T) {
	for s, want := range map[string]bool{
		"":          true,
		"*":         true,
		"a.x,b.y":   true,
		"b.y,a.x":   false, // unsorted
		"a.x,a.x":   false, // duplicate
		"a.x,":      false, // empty right
		",a.x":      false,
		" a.x":      false, // surrounding space
		"a.x ,b.y":  false,
		"a.x,,b.y":  false,
		"a.*,a.x,b": true,
	} {
		rs, ok := ParseCanonicalRightSet(s)
		if ok != want {
			t.Errorf("ParseCanonicalRightSet(%q) canonical = %v, want %v", s, ok, want)
		}
		if ok && rs.String() != s {
			t.Errorf("canonical %q re-renders as %q", s, rs.String())
		}
	}
}
