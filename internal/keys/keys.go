// Package keys provides principal identities, signing keys and a
// certificate registry. The paper assumes an underlying public-key
// infrastructure ("the credentials include the owner's public key
// certificate", §5.2) without specifying one; this package is that
// substrate. A Registry plays the role of the certification authority
// every host trusts, issuing signed (name, public key, validity)
// certificates for principals, agent owners and servers.
package keys

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/names"
)

// Errors reported by certificate verification.
var (
	ErrBadSignature = errors.New("keys: bad signature")
	ErrExpired      = errors.New("keys: certificate expired")
	ErrNotYetValid  = errors.New("keys: certificate not yet valid")
	ErrUnknownCA    = errors.New("keys: certificate not issued by a trusted CA")
	ErrRevoked      = errors.New("keys: certificate revoked")
)

// KeyPair is a principal's signing keypair.
type KeyPair struct {
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// Generate creates a fresh ed25519 keypair.
func Generate() (KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return KeyPair{}, fmt.Errorf("keys: generate: %w", err)
	}
	return KeyPair{Public: pub, private: priv}, nil
}

// MustGenerate is Generate for setup code; it panics on failure.
func MustGenerate() KeyPair {
	kp, err := Generate()
	if err != nil {
		panic(err)
	}
	return kp
}

// Sign signs msg with the private key.
func (k KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(k.private, msg)
}

// Verify checks sig over msg against a public key.
func Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	return len(pub) == ed25519.PublicKeySize && ed25519.Verify(pub, msg, sig)
}

// Certificate binds a principal name to a public key for a validity
// interval, signed by the issuing CA. This is the "public key
// certificate" carried inside agent credentials.
type Certificate struct {
	Subject   names.Name
	PublicKey ed25519.PublicKey
	NotBefore time.Time
	NotAfter  time.Time
	Issuer    names.Name
	Signature []byte
}

// tbs returns the to-be-signed byte encoding of the certificate. The
// encoding is deterministic: length-prefixed fields in fixed order.
func (c Certificate) tbs() []byte {
	var b bytes.Buffer
	writeField := func(p []byte) {
		var lenBuf [8]byte
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		b.Write(lenBuf[:])
		b.Write(p)
	}
	writeField([]byte(c.Subject.String()))
	writeField(c.PublicKey)
	writeField([]byte(c.NotBefore.UTC().Format(time.RFC3339Nano)))
	writeField([]byte(c.NotAfter.UTC().Format(time.RFC3339Nano)))
	writeField([]byte(c.Issuer.String()))
	return b.Bytes()
}

// Registry is the trusted certification authority plus directory of
// issued certificates. One Registry instance is shared by all servers in
// a platform (in a real deployment it would be an external CA).
type Registry struct {
	caName names.Name
	caKey  KeyPair

	mu      sync.RWMutex
	certs   map[names.Name]Certificate
	revoked map[names.Name]bool
}

// NewRegistry creates a CA named caName with a fresh key.
func NewRegistry(caName names.Name) (*Registry, error) {
	kp, err := Generate()
	if err != nil {
		return nil, err
	}
	return &Registry{
		caName:  caName,
		caKey:   kp,
		certs:   make(map[names.Name]Certificate),
		revoked: make(map[names.Name]bool),
	}, nil
}

// CAName returns the registry's CA name.
func (r *Registry) CAName() names.Name { return r.caName }

// CAPublicKey returns the CA's public key, which relying parties pin.
func (r *Registry) CAPublicKey() ed25519.PublicKey { return r.caKey.Public }

// Issue creates, signs, stores and returns a certificate for subject,
// valid for the given duration starting now.
func (r *Registry) Issue(subject names.Name, pub ed25519.PublicKey, validFor time.Duration) (Certificate, error) {
	if err := subject.Valid(); err != nil {
		return Certificate{}, err
	}
	if len(pub) != ed25519.PublicKeySize {
		return Certificate{}, errors.New("keys: issue: bad public key size")
	}
	now := time.Now()
	cert := Certificate{
		Subject:   subject,
		PublicKey: pub,
		NotBefore: now.Add(-time.Minute), // small clock-skew allowance
		NotAfter:  now.Add(validFor),
		Issuer:    r.caName,
	}
	cert.Signature = r.caKey.Sign(cert.tbs())
	r.mu.Lock()
	r.certs[subject] = cert
	delete(r.revoked, subject)
	r.mu.Unlock()
	return cert, nil
}

// Revoke marks a subject's certificate as revoked. Stolen credentials
// "cannot be misused indefinitely" (§5.2): expiry bounds the damage and
// revocation cuts it off immediately.
func (r *Registry) Revoke(subject names.Name) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.revoked[subject] = true
}

// Lookup returns the stored certificate for a subject.
func (r *Registry) Lookup(subject names.Name) (Certificate, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.certs[subject]
	return c, ok
}

// Verifier is the relying-party view of the CA: just the pinned CA name
// and key plus the revocation oracle. Servers embed a Verifier so that
// verification does not require mutating access to the Registry.
type Verifier struct {
	CAName names.Name
	CAKey  ed25519.PublicKey
	// IsRevoked may be nil when no revocation oracle is available
	// (e.g. a disconnected server); expiry then bounds misuse.
	IsRevoked func(names.Name) bool
	// Cache, when non-nil, memoizes successful signature checks (the
	// ed25519 step only — validity and revocation stay live): the CA
	// signatures of Check and every VerifySig. Repeat peers then skip
	// the expensive verify in every handshake, and an agent arriving
	// again at a server skips it for its credential signatures.
	Cache *CheckCache
}

// Verifier returns a relying-party verifier wired to this registry,
// with signature-check caching on (repeat peers and returning agents
// are the common case). Each call returns a verifier with its own
// cache.
func (r *Registry) Verifier() Verifier {
	return Verifier{
		CAName: r.caName,
		CAKey:  r.caKey.Public,
		IsRevoked: func(n names.Name) bool {
			r.mu.RLock()
			defer r.mu.RUnlock()
			return r.revoked[n]
		},
		Cache: new(CheckCache),
	}
}

// Check verifies a certificate: issuer identity, signature, validity
// window and revocation status. Only the signature verdict is ever
// cached; the time-dependent checks run on every call.
func (v Verifier) Check(c Certificate, at time.Time) error {
	if c.Issuer != v.CAName {
		return fmt.Errorf("%w: issuer %s", ErrUnknownCA, c.Issuer)
	}
	if !v.VerifySig(v.CAKey, c.tbs(), c.Signature) {
		return fmt.Errorf("%w: cert for %s", ErrBadSignature, c.Subject)
	}
	if at.Before(c.NotBefore) {
		return fmt.Errorf("%w: cert for %s", ErrNotYetValid, c.Subject)
	}
	if at.After(c.NotAfter) {
		return fmt.Errorf("%w: cert for %s", ErrExpired, c.Subject)
	}
	if v.IsRevoked != nil && v.IsRevoked(c.Subject) {
		return fmt.Errorf("%w: cert for %s", ErrRevoked, c.Subject)
	}
	return nil
}

// VerifySig is Verify through the verifier's cache: a signature that
// already verified over the same bytes under the same key (the cache
// key is the exact triple) is accepted without repeating the ed25519
// check. Only successes are cached, so a forged signature or any
// changed signed byte misses and is checked for real. Callers keep
// every time- and revocation-dependent check live.
func (v Verifier) VerifySig(pub ed25519.PublicKey, msg, sig []byte) bool {
	if v.Cache == nil || len(pub) != ed25519.PublicKeySize {
		return Verify(pub, msg, sig)
	}
	k := v.Cache.key(pub, msg, sig)
	if v.Cache.hit(&k) {
		return true
	}
	if !ed25519.Verify(pub, msg, sig) {
		return false
	}
	v.Cache.add(&k)
	return true
}

// caState is the serialized form of a CA: its name and private seed.
// Exporting it lets several OS processes share one platform CA (every
// process can then issue certificates the others trust). The bytes are
// SECRET — treat the file like a CA key.
type caState struct {
	Name names.Name
	Seed []byte
}

// Export serializes the CA's name and private key for ImportRegistry.
func (r *Registry) Export() ([]byte, error) {
	var buf bytes.Buffer
	st := caState{Name: r.caName, Seed: r.caKey.private.Seed()}
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("keys: export: %w", err)
	}
	return buf.Bytes(), nil
}

// ImportRegistry reconstructs a Registry around an exported CA key. The
// imported registry starts with an empty certificate directory — each
// process issues its own identities; they all verify everywhere because
// the signing key is shared. Revocations are process-local.
func ImportRegistry(data []byte) (*Registry, error) {
	var st caState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return nil, fmt.Errorf("keys: import: %w", err)
	}
	if len(st.Seed) != ed25519.SeedSize {
		return nil, errors.New("keys: import: bad seed length")
	}
	if err := st.Name.Valid(); err != nil {
		return nil, fmt.Errorf("keys: import: %w", err)
	}
	priv := ed25519.NewKeyFromSeed(st.Seed)
	return &Registry{
		caName:  st.Name,
		caKey:   KeyPair{Public: priv.Public().(ed25519.PublicKey), private: priv},
		certs:   make(map[names.Name]Certificate),
		revoked: make(map[names.Name]bool),
	}, nil
}

// Identity bundles a principal's name, keypair and certificate: the
// complete credential material a principal holds locally.
type Identity struct {
	Name names.Name
	Keys KeyPair
	Cert Certificate
}

// NewIdentity generates a keypair for name and has the registry certify
// it for validFor.
func NewIdentity(r *Registry, name names.Name, validFor time.Duration) (Identity, error) {
	kp, err := Generate()
	if err != nil {
		return Identity{}, err
	}
	cert, err := r.Issue(name, kp.Public, validFor)
	if err != nil {
		return Identity{}, err
	}
	return Identity{Name: name, Keys: kp, Cert: cert}, nil
}
