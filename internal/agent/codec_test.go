package agent

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/asl"
	"repro/internal/cred"
	"repro/internal/keys"
	"repro/internal/names"
	"repro/internal/vm"
	"repro/internal/vm/analysis"
)

// tourAgent builds an agent as it looks mid-journey: pinned code with a
// manifest, two delegation links (one with a zero expiry), an itinerary
// with alternatives, nested state, results and log lines.
func tourAgent(t testing.TB) (*Agent, keys.Verifier) {
	t.Helper()
	reg, err := keys.NewRegistry(names.Principal("umn.edu", "ca"))
	if err != nil {
		t.Fatal(err)
	}
	owner, err := keys.NewIdentity(reg, names.Principal("umn.edu", "alice"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := keys.NewIdentity(reg, names.Server("umn.edu", "s1"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := keys.NewIdentity(reg, names.Server("umn.edu", "s2"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := asl.Compile(`module tour
var n = 0
var trail = []
func visit() {
  n = n + 1
  report(server_name())
  log("visited")
}
func back() { report(n) }`)
	if err != nil {
		t.Fatal(err)
	}
	code := []vm.Module{*mod}
	digest, err := BundleDigest(code)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cred.IssueForCode(owner, names.Agent("umn.edu", "tourist"), names.Principal("umn.edu", "app"),
		cred.NewRightSet("db/quotes.get", "buf.*", "counter.add"), time.Hour, "home:7000", digest)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delegate(s1, cred.NewRightSet("db/quotes.get", "buf.*"), time.Now().Add(30*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := c.Delegate(s2, cred.NewRightSet("buf.get"), time.Time{}); err != nil {
		t.Fatal(err)
	}
	it := Itinerary{Stops: []Stop{
		{Servers: []names.Name{names.Server("umn.edu", "s1"), names.Server("umn.edu", "s1b")}, Entry: "visit"},
		{Servers: []names.Name{names.Server("umn.edu", "s2")}, Entry: "visit"},
		{Servers: []names.Name{names.Server("umn.edu", "home")}, Entry: "back"},
	}}
	a, err := New(c, "tour", code, it)
	if err != nil {
		t.Fatal(err)
	}
	a.Manifest, err = analysis.ComputeManifest(code)
	if err != nil {
		t.Fatal(err)
	}
	a.State["n"] = vm.I(-2)
	a.State["trail"] = vm.L(vm.S("s1"), vm.S("s2"), vm.Nil(), vm.B(true))
	a.State["seen"] = vm.M(map[string]vm.Value{"s1": vm.I(1), "s2": vm.M(nil), "": vm.L()})
	a.Initialized = true
	a.Itinerary.Advance()
	a.Hops = 2
	a.PendingEntry = "visit"
	a.Results = []vm.Value{vm.S("s1"), vm.I(1 << 40), vm.H(9)}
	a.Log = []string{"visited s1", "", "visited s2"}
	return a, reg.Verifier()
}

func mustEncode(t testing.TB, a *Agent) []byte {
	t.Helper()
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCodecRoundTripCanonical: decoding reproduces every migrating
// field, and re-encoding reproduces the bytes.
func TestCodecRoundTripCanonical(t *testing.T) {
	a, _ := tourAgent(t)
	data := mustEncode(t, a)
	b, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if again := mustEncode(t, b); !bytes.Equal(again, data) {
		t.Fatal("Encode(Decode(b)) != b")
	}
	if b.Name != a.Name || b.MainModule != a.MainModule || !b.Initialized || b.Hops != 2 ||
		b.PendingEntry != "visit" || b.Itinerary.Next != 1 || len(b.Itinerary.Stops) != 3 ||
		b.Itinerary.Stops[0].Servers[1] != a.Itinerary.Stops[0].Servers[1] {
		t.Fatalf("metadata differs: %+v", b)
	}
	if len(b.State) != len(a.State) {
		t.Fatalf("state has %d entries, want %d", len(b.State), len(a.State))
	}
	for k, v := range a.State {
		if !b.State[k].Equal(v) {
			t.Fatalf("state[%q] = %v, want %v", k, b.State[k], v)
		}
	}
	for i, v := range a.Results {
		if !b.Results[i].Equal(v) {
			t.Fatalf("result %d = %v, want %v", i, b.Results[i], v)
		}
	}
	if strings.Join(b.Log, "|") != strings.Join(a.Log, "|") {
		t.Fatalf("log = %q", b.Log)
	}
	if !b.Manifest.Covers(a.Manifest) || !a.Manifest.Covers(b.Manifest) {
		t.Fatalf("manifest = %v, want %v", b.Manifest, a.Manifest)
	}
	if vm.VerifyBundle(b.Code) != nil || b.Code[0].Disassemble() != a.Code[0].Disassemble() {
		t.Fatal("code differs")
	}
}

// TestCredentialsCodecSurvivesVerification: a delegated credential
// chain that crosses the codec still verifies — the signed byte
// encodings are stable under it, which is what migration relies on —
// and a zero delegation expiry stays zero.
func TestCredentialsCodecSurvivesVerification(t *testing.T) {
	a, v := tourAgent(t)
	b, err := Decode(mustEncode(t, a))
	if err != nil {
		t.Fatal(err)
	}
	got := &b.Credentials
	if err := got.Verify(v, time.Now()); err != nil {
		t.Fatalf("decoded credentials fail verification: %v", err)
	}
	if !got.Permits("buf.get") || got.Permits("buf.put") || got.Permits("db/quotes.get") {
		t.Fatal("decoded rights differ")
	}
	if !got.EffectiveExpiry().Equal(a.Credentials.EffectiveExpiry()) {
		t.Fatal("effective expiry changed")
	}
	if !got.Delegations[1].Expiry.IsZero() {
		t.Fatalf("zero delegation expiry decoded as %v", got.Delegations[1].Expiry)
	}
	digest, err := BundleDigest(b.Code)
	if err != nil || !bytes.Equal(digest, got.CodeDigest) {
		t.Fatalf("digest drifted across the codec: %v", err)
	}
}

// TestCodecMinimalElements: every repeated element at its smallest
// encoding decodes, so no count check demands more bytes than an
// element can take.
func TestCodecMinimalElements(t *testing.T) {
	a := &Agent{
		Credentials: cred.Credentials{Delegations: make([]cred.Delegation, 3)},
		Code: []vm.Module{
			{Ints: []int64{0, 0}, Strs: []string{"", ""}, Fns: make([]vm.Func, 2)},
			{Fns: []vm.Func{{Code: make([]vm.Instr, 3), Pos: make([]vm.Pos, 3), LocalNames: []string{""}}}},
		},
		State: map[string]vm.Value{
			"":  {},
			"a": vm.L(vm.Nil(), vm.Nil()),
			"b": vm.M(map[string]vm.Value{"": {}, "x": {}}),
		},
		Itinerary: Itinerary{Stops: []Stop{{}, {Servers: make([]names.Name, 2)}}},
		Results:   make([]vm.Value, 3),
		Log:       []string{"", ""},
		Manifest:  &analysis.Manifest{HostCalls: []string{""}},
	}
	data := mustEncode(t, a)
	b, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustEncode(t, b), data) {
		t.Fatal("minimal agent does not round-trip")
	}
	// Maps decode non-nil even when empty, so the VM can store into
	// them after migration.
	b2, err := Decode(mustEncode(t, &Agent{State: map[string]vm.Value{"m": vm.M(nil)}}))
	if err != nil {
		t.Fatal(err)
	}
	if b2.State["m"].Map == nil {
		t.Fatal("empty map decoded as nil")
	}
}

// TestQuickStateRoundTrip: random nested state survives the codec
// exactly and canonically.
func TestQuickStateRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := &Agent{State: make(map[string]vm.Value)}
		for i := r.Intn(6); i > 0; i-- {
			a.State[randStr(r)] = randValue(r, 4)
		}
		a.Results = []vm.Value{randValue(r, 4)}
		data, err := a.Encode()
		if err != nil {
			return false
		}
		b, err := Decode(data)
		if err != nil || len(b.State) != len(a.State) || !b.Results[0].Equal(a.Results[0]) {
			return false
		}
		for k, v := range a.State {
			if !b.State[k].Equal(v) {
				return false
			}
		}
		again, err := b.Encode()
		return err == nil && bytes.Equal(again, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func randStr(r *rand.Rand) string {
	const alpha = "abcé\x00 "
	runes := []rune(alpha)
	out := make([]rune, r.Intn(5))
	for i := range out {
		out[i] = runes[r.Intn(len(runes))]
	}
	return string(out)
}

func randValue(r *rand.Rand, depth int) vm.Value {
	k := r.Intn(7)
	if depth == 0 && k >= 4 {
		k = r.Intn(4)
	}
	switch k {
	case 0:
		return vm.Nil()
	case 1:
		return vm.B(r.Intn(2) == 0)
	case 2:
		return vm.I(r.Int63() - r.Int63())
	case 3:
		return vm.S(randStr(r))
	case 4:
		l := make([]vm.Value, r.Intn(4))
		for i := range l {
			l[i] = randValue(r, depth-1)
		}
		return vm.L(l...)
	case 5:
		m := make(map[string]vm.Value)
		for i := r.Intn(4); i > 0; i-- {
			m[randStr(r)] = randValue(r, depth-1)
		}
		return vm.M(m)
	default:
		return vm.H(r.Uint64())
	}
}

// TestDecodeRejectsMalformed: every strict prefix, a trailing byte, an
// unknown version and each non-canonical spelling fail with
// ErrMalformed.
func TestDecodeRejectsMalformed(t *testing.T) {
	a, _ := tourAgent(t)
	data := mustEncode(t, a)
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); !errors.Is(err, ErrMalformed) {
			t.Fatalf("prefix of %d/%d bytes: err = %v", n, len(data), err)
		}
	}
	// Hand-spelled variants of an agent whose fields of interest are
	// easy to find: rights "zz", IssuedAt 1 s + 5 ns, state {"a": 1}.
	marked := mustEncode(t, &Agent{
		Credentials: cred.Credentials{Rights: cred.NewRightSet("zz"), IssuedAt: time.Unix(1, 5)},
		State:       map[string]vm.Value{"a": vm.I(1)},
	})
	spell := func(old, repl []byte) []byte {
		t.Helper()
		i := bytes.Index(marked, old)
		if i < 0 {
			t.Fatalf("%x not in the encoding", old)
		}
		out := append([]byte(nil), marked[:i]...)
		out = append(out, repl...)
		return append(out, marked[i+len(old):]...)
	}
	rights := func(s string) []byte { return spell([]byte("\x02zz"), append([]byte{byte(len(s))}, s...)) }
	// The state entry: count 1, key "a", an int, zig-zag 1.
	stateEntry := []byte{1, 1, 'a', byte(vm.KindInt), 2}
	state := func(entries ...[]byte) []byte {
		st := binary.AppendUvarint(nil, uint64(len(entries)))
		for _, e := range entries {
			st = append(st, e...)
		}
		return spell(stateEntry, st)
	}
	entry := func(k string, v ...byte) []byte { return append(append([]byte{byte(len(k))}, k...), v...) }

	for name, in := range map[string][]byte{
		"canonical rights": rights("a,b"),
		"canonical state":  state(entry("a", 0), entry("b", byte(vm.KindMap), 2, 1, 'a', 0, 1, 'b', 0)),
	} {
		if _, err := Decode(in); err != nil {
			t.Fatalf("%s rejected: %v", name, err)
		}
	}
	for name, in := range map[string][]byte{
		"trailing byte":            append(bytes.Clone(data), 0),
		"unknown version":          append([]byte{codecVersion + 1}, data[1:]...),
		"non-minimal varint":       append([]byte{codecVersion, 0x80, 0x00}, marked[2:]...),
		"unsorted rights":          rights("b,a"),
		"spaced rights":            rights(" a"),
		"nanoseconds out of range": spell([]byte("\x02zz\x02\x05"), binary.AppendUvarint([]byte("\x02zz\x02"), 1e9)),
		"state keys out of order":  state(entry("b", 0), entry("a", 0)),
		"duplicate state key":      state(entry("a", 0), entry("a", 0)),
		"map keys out of order":    state(entry("m", byte(vm.KindMap), 2, 1, 'b', 0, 1, 'a', 0)),
		"bad bool":                 state(entry("a", byte(vm.KindBool), 2)),
		"unknown kind":             state(entry("a", 7)),
		"count exceeds input":      state(entry("a", byte(vm.KindList), 9, 0)),
	} {
		if _, err := Decode(in); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

// nested returns a list nested depth levels deep (depth 1 is a bare
// list).
func nested(depth int) vm.Value {
	v := vm.L()
	for i := 1; i < depth; i++ {
		v = vm.L(v)
	}
	return v
}

// TestValueDepthCapSymmetry: Encode refuses exactly what Decode would
// reject, in state and in results.
func TestValueDepthCapSymmetry(t *testing.T) {
	for _, place := range []string{"state", "results"} {
		put := func(v vm.Value) *Agent {
			a := &Agent{State: map[string]vm.Value{}}
			if place == "state" {
				a.State["deep"] = v
			} else {
				a.Results = []vm.Value{v}
			}
			return a
		}
		data, err := put(nested(MaxValueDepth)).Encode()
		if err != nil {
			t.Fatalf("%s: depth %d refused: %v", place, MaxValueDepth, err)
		}
		if _, err := Decode(data); err != nil {
			t.Fatalf("%s: depth %d rejected: %v", place, MaxValueDepth, err)
		}
		if _, err := put(nested(MaxValueDepth + 1)).Encode(); !errors.Is(err, ErrValueTooDeep) {
			t.Fatalf("%s: Encode of depth %d: err = %v", place, MaxValueDepth+1, err)
		}
		// The same bytes one level deeper: wrap the innermost empty
		// list (kind, count 0) in one more single-element list.
		inner := []byte{byte(vm.KindList), 0}
		i := bytes.LastIndex(data, inner)
		deeper := append(append(append([]byte(nil), data[:i]...), byte(vm.KindList), 1), data[i:]...)
		if _, err := Decode(deeper); !errors.Is(err, ErrValueTooDeep) {
			t.Fatalf("%s: Decode of depth %d: err = %v", place, MaxValueDepth+1, err)
		}
	}
}

// allocBytes reports the bytes f allocates per call, averaged over
// runs.
func allocBytes(f func()) uint64 {
	const runs = 100
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestDecodeBoundedAllocation: input that lies about its size or nests
// past the cap is rejected before the decoder allocates for it.
func TestDecodeBoundedAllocation(t *testing.T) {
	claim := binary.AppendUvarint(nil, 1<<31)
	pad := func(b []byte) []byte { return append(b, make([]byte, 16-len(b))...) }

	// A whole agent whose first string claims 2^31 bytes.
	agentIn := pad(append([]byte{codecVersion}, claim...))
	// A value: a list claiming 2^31 elements.
	listIn := pad(append([]byte{byte(vm.KindList)}, claim...))
	// A value: single-element lists nested one past the cap.
	var deepIn []byte
	for i := 0; i <= MaxValueDepth; i++ {
		deepIn = append(deepIn, byte(vm.KindList), 1)
	}
	deepIn = append(deepIn, byte(vm.KindNil))

	for _, c := range []struct {
		name string
		in   []byte
		run  func([]byte) error
		want error
	}{
		{"agent claims 2^31 bytes", agentIn, func(b []byte) error { _, err := Decode(b); return err }, ErrMalformed},
		{"list claims 2^31 elements", listIn, decodeValue, ErrMalformed},
		{"nesting past the cap", deepIn, decodeValue, ErrValueTooDeep},
	} {
		if err := c.run(c.in); !errors.Is(err, c.want) {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if n := allocBytes(func() { _ = c.run(c.in) }); n >= 1024 {
			t.Errorf("%s: %d bytes allocated per decode, want < 1 KB", c.name, n)
		}
	}
}

// decodeValue decodes one top-level value that must fill b.
func decodeValue(b []byte) error {
	d := decoder{buf: b}
	d.value()
	if d.err == nil && len(d.buf) > 0 {
		d.fail("trailing bytes")
	}
	return d.err
}

// TestDecodedStringsOwnTheirMemory: no decoded field aliases the frame
// (names outlive the journey in name tables and policy rules, and must
// not pin the frame).
func TestDecodedStringsOwnTheirMemory(t *testing.T) {
	a, _ := tourAgent(t)
	data := mustEncode(t, a)
	want := bytes.Clone(data)
	b, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xFF
	}
	if got := mustEncode(t, b); !bytes.Equal(got, want) {
		t.Fatal("decoded agent changed when the frame was overwritten")
	}
}

// fusedAgent is a canonical agent whose bundle was swapped for one
// carrying a fused superinstruction.
func fusedAgent(t *testing.T) *Agent {
	t.Helper()
	a, _ := tourAgent(t)
	fused := a.Code[0]
	fused.Fns = append([]vm.Func(nil), fused.Fns...)
	fused.Fns[0].Code = append([]vm.Instr{{Op: vm.OpLLIAdd}}, fused.Fns[0].Code...)
	a.Code = []vm.Module{fused}
	return a
}

// TestFusedCodeRejectedBothSides: Encode, Decode and BundleDigest all
// refuse fused bytecode; the Decode case feeds the codec's bytes for a
// fused bundle, as a sender bypassing Encode would.
func TestFusedCodeRejectedBothSides(t *testing.T) {
	a := fusedAgent(t)
	if _, err := a.Encode(); !errors.Is(err, ErrFusedCode) {
		t.Fatalf("Encode: err = %v", err)
	}
	if _, err := BundleDigest(a.Code); !errors.Is(err, ErrFusedCode) {
		t.Fatalf("BundleDigest: err = %v", err)
	}
	raw, err := encodeAgent(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(raw); !errors.Is(err, ErrFusedCode) {
		t.Fatalf("Decode: err = %v", err)
	}
}

// TestBundleDigestDefinition: the digest is SHA-256 over the domain tag
// and the codec's bundle bytes, and a code change moves it.
func TestBundleDigestDefinition(t *testing.T) {
	a, _ := tourAgent(t)
	got, err := BundleDigest(a.Code)
	if err != nil {
		t.Fatal(err)
	}
	e := encoder{b: []byte(codeDigestTag)}
	e.bundle(a.Code)
	if want := sha256.Sum256(e.b); !bytes.Equal(got, want[:]) {
		t.Fatal("digest is not SHA-256(tag || bundle bytes)")
	}
	patched := a.Code[0]
	patched.Ints = append([]int64{7}, patched.Ints...)
	other, _ := BundleDigest([]vm.Module{patched})
	if bytes.Equal(got, other) {
		t.Fatal("digest insensitive to a code change")
	}
}

// FuzzDecodeAgent: no input panics the decoder, and whatever decodes
// re-encodes to the identical bytes.
func FuzzDecodeAgent(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Decode(data)
		if err != nil {
			return
		}
		again, err := a.Encode()
		if err != nil {
			t.Fatalf("decoded agent does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding differs:\n in  %x\n out %x", data, again)
		}
	})
}

// TestBundleDigestIsFixed pins the digest of a fixed bundle. It must be
// a function of the bundle alone, equal in every process and build:
// servers in different processes recompute each other's pinned digests.
// (The gob-based digest depended on the order a process had first
// registered gob types, so cross-process transfers were rejected.)
// Changing the codec's bundle layout changes this value and must bump
// codeDigestTag.
func TestBundleDigestIsFixed(t *testing.T) {
	code := []vm.Module{{
		Name: "m",
		Ints: []int64{1, -1},
		Strs: []string{"report"},
		Fns: []vm.Func{{
			Name: "main", NParams: 1, NLocals: 2,
			Code:       []vm.Instr{{Op: vm.OpPushInt, A: 1}, {Op: vm.OpReturn}},
			Pos:        []vm.Pos{{Line: 2, Col: 3}, {Line: 2, Col: 9}},
			LocalNames: []string{"x", "y"},
		}},
	}}
	got, err := BundleDigest(code)
	if err != nil {
		t.Fatal(err)
	}
	const want = "d291d270fd6987b76f28098f370acde7913ae9015dd9803ac038baf7d190e1e2"
	if hex.EncodeToString(got) != want {
		t.Fatalf("digest = %x, want %s", got, want)
	}
}
