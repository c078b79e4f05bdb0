package keys

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/names"
)

func TestCheckCacheHits(t *testing.T) {
	reg, err := NewRegistry(names.Principal("umn.edu", "ca"))
	if err != nil {
		t.Fatal(err)
	}
	id, err := NewIdentity(reg, names.Server("umn.edu", "s"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	v := reg.Verifier()
	for i := 0; i < 5; i++ {
		if err := v.Check(id.Cert, time.Now()); err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
	}
	st := v.Cache.Stats()
	if st.Misses != 1 || st.Hits != 4 {
		t.Fatalf("stats = %+v, want 1 miss + 4 hits", st)
	}
}

func TestCheckCacheDoesNotMaskRevocation(t *testing.T) {
	reg, err := NewRegistry(names.Principal("umn.edu", "ca"))
	if err != nil {
		t.Fatal(err)
	}
	id, err := NewIdentity(reg, names.Server("umn.edu", "s"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	v := reg.Verifier()
	if err := v.Check(id.Cert, time.Now()); err != nil {
		t.Fatal(err)
	}
	reg.Revoke(id.Name)
	// The signature verdict is cached but revocation is checked live:
	// a warm cache must not keep a revoked certificate alive.
	if err := v.Check(id.Cert, time.Now()); !errors.Is(err, ErrRevoked) {
		t.Fatalf("revoked cert passed with warm cache: %v", err)
	}
}

func TestCheckCacheDoesNotMaskExpiry(t *testing.T) {
	reg, err := NewRegistry(names.Principal("umn.edu", "ca"))
	if err != nil {
		t.Fatal(err)
	}
	id, err := NewIdentity(reg, names.Server("umn.edu", "s"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	v := reg.Verifier()
	if err := v.Check(id.Cert, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := v.Check(id.Cert, time.Now().Add(2*time.Hour)); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired cert passed with warm cache: %v", err)
	}
}

func TestCheckCacheNegativeNotCached(t *testing.T) {
	reg, err := NewRegistry(names.Principal("umn.edu", "ca"))
	if err != nil {
		t.Fatal(err)
	}
	id, err := NewIdentity(reg, names.Server("umn.edu", "s"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	v := reg.Verifier()
	bad := id.Cert
	bad.Signature = append([]byte(nil), bad.Signature...)
	bad.Signature[0] ^= 0x01
	for i := 0; i < 3; i++ {
		if err := v.Check(bad, time.Now()); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("tampered cert passed: %v", err)
		}
	}
	if st := v.Cache.Stats(); st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("failed verification entered the cache: %+v", st)
	}
}

// TestCheckCacheBounded: the table holds at most checkCacheSize
// verdicts however many distinct signatures it records, the verdict
// recorded last always hits, and recording allocates nothing.
func TestCheckCacheBounded(t *testing.T) {
	c := new(CheckCache)
	signer, sig := make([]byte, 32), make([]byte, 64)
	msg := make([]byte, 8)
	next := func(i int) [32]byte {
		binary.BigEndian.PutUint64(msg, uint64(i))
		return c.key(signer, msg, sig)
	}
	for i := 0; i < 4*checkCacheSize; i++ {
		k := next(i)
		c.add(&k)
		if !c.hit(&k) {
			t.Fatalf("entry %d missed right after it was added", i)
		}
		if n := c.Stats().Entries; n > checkCacheSize {
			t.Fatalf("after %d adds Entries = %d, table size %d", i+1, n, checkCacheSize)
		}
	}
	if n := c.Stats().Entries; n < checkCacheSize/2 {
		t.Fatalf("Entries = %d after %d distinct adds: the table is not being filled", n, 4*checkCacheSize)
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		k := next(i)
		c.add(&k)
		i++
	}); n != 0 {
		t.Fatalf("adding an entry allocates %v times, want 0", n)
	}
}

// TestCheckCacheKeepsHotEntries: within a set the least recently used
// entry goes first, so a verdict that keeps hitting (a repeat peer's
// certificate) survives a stream of one-off ones landing in its set.
func TestCheckCacheKeepsHotEntries(t *testing.T) {
	c := new(CheckCache)
	signer, sig := make([]byte, 32), make([]byte, 64)
	var same [][32]byte // keys of one set, in the order found
	for i := 0; len(same) < 2*checkWays; i++ {
		k := c.key(signer, binary.BigEndian.AppendUint64(nil, uint64(i)), sig)
		if k[0]%checkSets == 0 {
			same = append(same, k)
		}
	}
	hot := same[0]
	c.add(&hot)
	for i := 1; i < len(same); i++ {
		k := same[i]
		c.add(&k)
		if !c.hit(&hot) {
			t.Fatalf("the hot entry was evicted by the %d-th newer entry of its set", i)
		}
	}
	if first := same[1]; c.hit(&first) {
		t.Fatalf("%d newer entries in a %d-way set left the oldest one-off entry in place", len(same)-2, checkWays)
	}
}

// TestCheckCacheKeyFramed: the key length-prefixes each part, so moving
// the signer key's last byte onto the front of the signed bytes (the
// same concatenation) is a different entry.
func TestCheckCacheKeyFramed(t *testing.T) {
	kp := MustGenerate()
	tbs := []byte("to be signed")
	sig := kp.Sign(tbs)
	c := new(CheckCache)
	k := c.key(kp.Public, tbs, sig)
	c.add(&k)
	shifted := append([]byte{kp.Public[31]}, tbs...)
	if alt := c.key(kp.Public[:31], shifted, sig); c.hit(&alt) {
		t.Fatal("a 31-byte key with the shifted signed bytes hit the genuine entry")
	}
	if alt := c.key(kp.Public, tbs[:4], append(append([]byte(nil), tbs[4:]...), sig...)); c.hit(&alt) {
		t.Fatal("signed bytes shifted into the signature hit the genuine entry")
	}
	if !c.hit(&k) {
		t.Fatal("the genuine triple missed")
	}
}

// TestVerifySigCachesSuccessOnly: VerifySig verifies a triple once,
// never caches a failure, and keeps Verify's key-length check.
func TestVerifySigCachesSuccessOnly(t *testing.T) {
	kp := MustGenerate()
	msg := []byte("m")
	sig := kp.Sign(msg)
	v := Verifier{Cache: new(CheckCache)}
	for i := 0; i < 3; i++ {
		if !v.VerifySig(kp.Public, msg, sig) {
			t.Fatalf("call %d rejected a valid signature", i)
		}
	}
	if st := v.Cache.Stats(); st.Misses != 1 || st.Hits != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 2 hits, 1 entry", st)
	}
	forged := append([]byte(nil), sig...)
	forged[0] ^= 1
	for i := 0; i < 2; i++ {
		if v.VerifySig(kp.Public, msg, forged) {
			t.Fatal("forged signature accepted")
		}
	}
	if v.VerifySig(kp.Public[:31], msg, sig) {
		t.Fatal("truncated key accepted")
	}
	if st := v.Cache.Stats(); st.Entries != 1 || st.Hits != 2 {
		t.Fatalf("a failed verification entered the cache: %+v", st)
	}
}

// TestVerifySigConcurrent: arrivals and handshakes share one verdict
// table. Goroutines verifying overlapping genuine and forged triples at
// once always get the right verdict (run with -race).
func TestVerifySigConcurrent(t *testing.T) {
	type triple struct {
		pub      ed25519.PublicKey
		msg, sig []byte
		genuine  bool
	}
	var ts []triple
	for i := 0; i < 8; i++ {
		kp := MustGenerate()
		msg := []byte{byte(i)}
		sig := kp.Sign(msg)
		forged := append([]byte(nil), sig...)
		forged[i] ^= 1
		ts = append(ts, triple{kp.Public, msg, sig, true}, triple{kp.Public, msg, forged, false})
	}
	v := Verifier{Cache: new(CheckCache)}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := ts[(g+i)%len(ts)]
				if got := v.VerifySig(tr.pub, tr.msg, tr.sig); got != tr.genuine {
					t.Errorf("goroutine %d: VerifySig = %v, want %v", g, got, tr.genuine)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := v.Cache.Stats(); st.Entries != len(ts)/2 {
		t.Fatalf("Entries = %d, want the %d genuine triples", st.Entries, len(ts)/2)
	}
}
