package cred

import (
	"errors"
	"testing"
	"time"

	"repro/internal/keys"
	"repro/internal/names"
)

// TestVerifyWarmCacheKeepsEveryCheck: once a credential's signatures
// are cached, verifying it again repeats no ed25519 check, yet every
// tampered copy is still rejected, and expiry and revocation are still
// judged at the time of each call.
func TestVerifyWarmCacheKeepsEveryCheck(t *testing.T) {
	f := newFixture(t)
	c, err := Issue(f.owner, names.Agent("umn.edu", "shopper-1"),
		names.Principal("umn.edu", "launcher-app"), NewRightSet("buf.get"), time.Minute, "home:7000")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delegate(f.server1, NewRightSet("buf.get"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if err := c.Verify(f.v, now); err != nil {
		t.Fatal(err)
	}
	warm := f.v.Cache.Stats()
	if err := c.Verify(f.v, now); err != nil {
		t.Fatal(err)
	}
	if st := f.v.Cache.Stats(); st.Misses != warm.Misses {
		t.Fatalf("a repeat verification missed the cache: %+v after %+v", st, warm)
	}

	cp := func() Credentials {
		d := c
		d.Signature = append([]byte(nil), c.Signature...)
		d.Delegations = append([]Delegation(nil), c.Delegations...)
		d.Delegations[0].Signature = append([]byte(nil), c.Delegations[0].Signature...)
		return d
	}
	mallory, err := keys.NewIdentity(f.reg, names.Principal("evil.org", "mallory"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		tamper func(*Credentials)
		want   error
	}{
		{"flipped base signature byte", func(d *Credentials) { d.Signature[7] ^= 1 }, ErrBadCredSignature},
		{"widened rights", func(d *Credentials) { d.Rights = NewRightSet("buf.*") }, ErrBadCredSignature},
		{"changed home site", func(d *Credentials) { d.HomeSite = "evil:7000" }, ErrBadCredSignature},
		{"pinned a code digest", func(d *Credentials) { d.CodeDigest = make([]byte, 32) }, ErrBadCredSignature},
		{"owner swap", func(d *Credentials) { d.Owner, d.OwnerCert = mallory.Name, mallory.Cert }, ErrBadCredSignature},
		{"flipped delegation signature byte", func(d *Credentials) { d.Delegations[0].Signature[3] ^= 1 }, ErrBrokenChain},
		{"widened delegation rights", func(d *Credentials) { d.Delegations[0].Rights = NewRightSet("buf.*") }, ErrBrokenChain},
	} {
		d := cp()
		tc.tamper(&d)
		if err := d.Verify(f.v, now); !errors.Is(err, tc.want) {
			t.Errorf("%s: Verify = %v, want %v", tc.name, err, tc.want)
		}
	}
	if err := c.Verify(f.v, now.Add(2*time.Minute)); !errors.Is(err, ErrCredExpired) {
		t.Fatalf("expired credentials with a warm cache: %v", err)
	}
	f.reg.Revoke(f.owner.Name)
	if err := c.Verify(f.v, now); !errors.Is(err, keys.ErrRevoked) {
		t.Fatalf("revoked owner with a warm cache: %v", err)
	}
}
