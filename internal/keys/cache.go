package keys

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// Table geometry: checkSets sets of checkWays entries, each entry a
// 32-byte digest, so a cache is a fixed 8 KB whatever it has seen.
const (
	checkSets      = 64
	checkWays      = 4
	checkCacheSize = checkSets * checkWays
)

// CheckCache memoizes *successful* signature verifications in a fixed
// table: 64 sets of 4 digests, least recently used first out within a
// set. Certificates of repeat peers and the credentials of an agent
// that comes back to a server it already admitted (a second visit, the
// homecoming) re-present the same signature over the same bytes; the
// ed25519 check does not need repeating. Only the signature step is
// cached: issuer identity, validity windows, expiry and the revocation
// oracle are evaluated live by every caller, so caching never extends
// trust in time or past a revocation. Failed verifications are not
// cached: a negative result costs one ed25519 operation, and caching
// attacker-chosen garbage would only evict useful entries.
//
// The table never grows and a lookup or insert allocates nothing, so a
// server that sees a fresh credential per agent holds 8 KB of verdicts,
// not one heap object per agent ever admitted. The zero value is an
// empty cache.
type CheckCache struct {
	mu   sync.Mutex
	sets [checkSets][checkWays][32]byte // way 0 = most recently used; zero = empty

	hits    uint64
	misses  uint64
	entries int
}

// CheckCacheStats reports cache effectiveness.
type CheckCacheStats struct {
	Hits    uint64
	Misses  uint64
	Entries int
}

// key binds a verdict to the exact signer key, signed bytes and
// signature. Each part is length-prefixed, so no two distinct triples
// hash the same bytes: a certificate re-issued under the same subject
// (new key, new window), a changed signed field or a forged signature
// never matches a stale entry.
func (c *CheckCache) key(signer, msg, sig []byte) [32]byte {
	h := sha256.New()
	var n [8]byte
	for _, p := range [...][]byte{signer, msg, sig} {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	var k [32]byte
	h.Sum(k[:0])
	return k
}

// hit reports whether k was recorded, making it its set's most recent
// entry.
func (c *CheckCache) hit(k *[32]byte) bool {
	set := &c.sets[k[0]%checkSets]
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range set {
		if set[i] == *k {
			copy(set[1:i+1], set[:i])
			set[0] = *k
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// add records a successful verification as its set's most recent entry,
// dropping the set's least recently used one when the set is full.
func (c *CheckCache) add(k *[32]byte) {
	set := &c.sets[k[0]%checkSets]
	c.mu.Lock()
	defer c.mu.Unlock()
	i := 0
	for i < checkWays-1 && set[i] != *k && set[i] != ([32]byte{}) {
		i++
	}
	if set[i] == ([32]byte{}) {
		c.entries++
	}
	copy(set[1:i+1], set[:i])
	set[0] = *k
}

// Stats returns hit/miss counters and current occupancy.
func (c *CheckCache) Stats() CheckCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CheckCacheStats{Hits: c.hits, Misses: c.misses, Entries: c.entries}
}
