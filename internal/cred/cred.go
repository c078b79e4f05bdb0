package cred

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/keys"
	"repro/internal/names"
)

// Errors reported by credential verification.
var (
	ErrBadCredSignature = errors.New("cred: credential signature invalid")
	ErrCredExpired      = errors.New("cred: credentials expired")
	ErrRightsEscalation = errors.New("cred: delegation attempts to widen rights")
	ErrBrokenChain      = errors.New("cred: delegation chain broken")
)

// Credentials associate an agent's identity with those of its owner and
// creator in a tamperproof manner (§5.2). The base record is signed by
// the owner; each subsequent Delegation link (a server forwarding the
// agent "like a subcontract") is signed by the delegating server and may
// only narrow the rights.
type Credentials struct {
	// AgentName is the agent's own global identity.
	AgentName names.Name
	// Owner is the human user the agent represents; Creator is the
	// application or agent that constructed it (the paper keeps the
	// two distinct).
	Owner   names.Name
	Creator names.Name
	// OwnerCert is the owner's public-key certificate, included so a
	// receiving server can verify the signature without a directory
	// round trip.
	OwnerCert keys.Certificate
	// Rights is the privilege set the owner delegated to the agent.
	Rights RightSet
	// IssuedAt / Expiry bound the lifetime: "the credentials could
	// have an expiration time so that stolen credentials cannot be
	// misused indefinitely."
	IssuedAt time.Time
	Expiry   time.Time
	// HomeSite is the address agents report results back to.
	HomeSite string
	// CodeDigest, when set, is the SHA-256 digest of the agent's code
	// bundle at issue time. Receiving servers recompute and compare,
	// so no intermediate host can swap or patch the agent's code
	// without invalidating the owner's signature (§2's agent-code
	// integrity requirement). Empty means "not pinned" (e.g. agents
	// whose code is assembled after issue).
	CodeDigest []byte
	// Signature is the owner's signature over all of the above.
	Signature []byte

	// Delegations is the (possibly empty) cascade of restrictions
	// applied by intermediate servers.
	Delegations []Delegation
}

// Delegation is one link in a cascaded-delegation chain: the delegator
// (a server the agent visited) restricts the effective rights and signs
// the restriction together with the hash chain so links cannot be
// removed or reordered.
type Delegation struct {
	Delegator names.Name
	// Cert is the delegator's certificate, carried for offline
	// verification just like the owner's.
	Cert keys.Certificate
	// Rights is the restricted right set effective after this link.
	Rights RightSet
	// Expiry may further shorten the credential lifetime; the zero
	// time means "unchanged".
	Expiry    time.Time
	Signature []byte
}

func writeField(b *bytes.Buffer, p []byte) {
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
	b.Write(lenBuf[:])
	b.Write(p)
}

// baseTBS is the deterministic to-be-signed encoding of the base record.
func (c *Credentials) baseTBS() []byte {
	var b bytes.Buffer
	writeField(&b, []byte(c.AgentName.String()))
	writeField(&b, []byte(c.Owner.String()))
	writeField(&b, []byte(c.Creator.String()))
	writeField(&b, c.OwnerCert.PublicKey)
	writeField(&b, []byte(c.Rights.String()))
	writeField(&b, []byte(c.IssuedAt.UTC().Format(time.RFC3339Nano)))
	writeField(&b, []byte(c.Expiry.UTC().Format(time.RFC3339Nano)))
	writeField(&b, []byte(c.HomeSite))
	writeField(&b, c.CodeDigest)
	return b.Bytes()
}

// delegationTBS covers the base signature and every prior link, chaining
// the links so none can be dropped without invalidating later ones.
func (c *Credentials) delegationTBS(upto int) []byte {
	var b bytes.Buffer
	writeField(&b, c.Signature)
	for i := 0; i <= upto; i++ {
		d := c.Delegations[i]
		writeField(&b, []byte(d.Delegator.String()))
		writeField(&b, []byte(d.Rights.String()))
		writeField(&b, []byte(d.Expiry.UTC().Format(time.RFC3339Nano)))
		if i < upto {
			writeField(&b, d.Signature)
		}
	}
	return b.Bytes()
}

// Issue creates owner-signed credentials for an agent without pinning
// its code (see IssueForCode).
func Issue(owner keys.Identity, agentName, creator names.Name, rights RightSet, validFor time.Duration, homeSite string) (Credentials, error) {
	return IssueForCode(owner, agentName, creator, rights, validFor, homeSite, nil)
}

// IssueForCode creates owner-signed credentials that additionally pin
// the agent's code-bundle digest, giving the agent's code end-to-end
// integrity across untrusted intermediate hosts.
func IssueForCode(owner keys.Identity, agentName, creator names.Name, rights RightSet, validFor time.Duration, homeSite string, codeDigest []byte) (Credentials, error) {
	if err := agentName.Valid(); err != nil {
		return Credentials{}, fmt.Errorf("cred: issue: %w", err)
	}
	now := time.Now()
	c := Credentials{
		AgentName:  agentName,
		Owner:      owner.Name,
		Creator:    creator,
		OwnerCert:  owner.Cert,
		Rights:     rights,
		IssuedAt:   now,
		Expiry:     now.Add(validFor),
		HomeSite:   homeSite,
		CodeDigest: append([]byte(nil), codeDigest...),
	}
	c.Signature = owner.Keys.Sign(c.baseTBS())
	return c, nil
}

// Delegate appends a restriction link signed by the delegating server.
// The new rights must be a subset of the currently effective rights;
// otherwise ErrRightsEscalation is returned and the credentials are
// unchanged. An optional earlier expiry may be applied (zero = keep).
func (c *Credentials) Delegate(delegator keys.Identity, restricted RightSet, expiry time.Time) error {
	if !restricted.SubsetOf(c.EffectiveRights()) {
		return ErrRightsEscalation
	}
	d := Delegation{
		Delegator: delegator.Name,
		Cert:      delegator.Cert,
		Rights:    restricted,
		Expiry:    expiry,
	}
	c.Delegations = append(c.Delegations, d)
	idx := len(c.Delegations) - 1
	c.Delegations[idx].Signature = delegator.Keys.Sign(c.delegationTBS(idx))
	return nil
}

// EffectiveRights returns the rights after applying every delegation
// link: the last link's set, or the base set when no delegations exist.
func (c *Credentials) EffectiveRights() RightSet {
	if n := len(c.Delegations); n > 0 {
		return c.Delegations[n-1].Rights
	}
	return c.Rights
}

// EffectiveExpiry returns the earliest applicable expiry.
func (c *Credentials) EffectiveExpiry() time.Time {
	e := c.Expiry
	for _, d := range c.Delegations {
		if !d.Expiry.IsZero() && d.Expiry.Before(e) {
			e = d.Expiry
		}
	}
	return e
}

// Verify checks the full credential chain at time `at`:
//
//  1. the owner's certificate is valid (CA signature, window, revocation),
//  2. the base record is signed by the owner's certified key,
//  3. the credentials have not expired,
//  4. every delegation link has a valid certificate, a valid chained
//     signature, and only narrows the rights of its predecessor.
//
// This is what a receiving server runs before admitting an agent.
//
// Every signature goes through v's cache (keys.Verifier.VerifySig),
// keyed on the signer key, the exact signed bytes and the signature, so
// a server verifies a given credential's signatures once: an agent's
// second visit and its homecoming hit. Everything else runs on every
// call: certificate windows and revocation, the owner-cert subject,
// the effective expiry, the delegation subjects and rights narrowing.
func (c *Credentials) Verify(v keys.Verifier, at time.Time) error {
	if err := v.Check(c.OwnerCert, at); err != nil {
		return fmt.Errorf("cred: owner cert: %w", err)
	}
	if c.OwnerCert.Subject != c.Owner {
		return fmt.Errorf("%w: owner cert subject %s != owner %s", ErrBadCredSignature, c.OwnerCert.Subject, c.Owner)
	}
	if !v.VerifySig(ed25519.PublicKey(c.OwnerCert.PublicKey), c.baseTBS(), c.Signature) {
		return fmt.Errorf("%w: base record", ErrBadCredSignature)
	}
	if at.After(c.EffectiveExpiry()) {
		return ErrCredExpired
	}
	prev := c.Rights
	for i, d := range c.Delegations {
		if err := v.Check(d.Cert, at); err != nil {
			return fmt.Errorf("cred: delegation %d cert: %w", i, err)
		}
		if d.Cert.Subject != d.Delegator {
			return fmt.Errorf("%w: delegation %d subject mismatch", ErrBrokenChain, i)
		}
		if !v.VerifySig(ed25519.PublicKey(d.Cert.PublicKey), c.delegationTBS(i), d.Signature) {
			return fmt.Errorf("%w: delegation %d signature", ErrBrokenChain, i)
		}
		if !d.Rights.SubsetOf(prev) {
			return fmt.Errorf("%w: delegation %d", ErrRightsEscalation, i)
		}
		prev = d.Rights
	}
	return nil
}

// Permits reports whether the effective rights allow r. Callers must
// Verify first; Permits is pure policy arithmetic.
func (c *Credentials) Permits(r Right) bool {
	return c.EffectiveRights().Permits(r)
}

// Digest identifies a credential chain by what a policy decision (or an
// admission tier) actually depends on: the owner principal and the
// effective (post-delegation) right set. Two agents of the same owner
// carrying the same delegated rights share a digest; a delegation link
// that narrows the rights changes it.
type Digest [sha256.Size]byte

// IsZero reports whether the digest is unset.
func (d Digest) IsZero() bool { return d == Digest{} }

// Digest returns the credential-semantics digest: SHA-256 over the
// owner name and the effective right set (length-prefixed fields, so
// adjacent values cannot collide). It is stable across hops — servers
// that merely forward the agent leave it unchanged — and changes
// exactly when a delegation link narrows the rights. Both the policy
// decision cache and the admission rate limiter key on it: the grant
// and the tier depend on nothing else about the chain.
func (c *Credentials) Digest() Digest {
	var b bytes.Buffer
	writeField(&b, []byte(c.Owner.String()))
	writeField(&b, []byte(c.EffectiveRights().String()))
	return sha256.Sum256(b.Bytes())
}
