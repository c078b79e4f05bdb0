package agent

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cred"
	"repro/internal/keys"
	"repro/internal/names"
	"repro/internal/vm"
	"repro/internal/vm/analysis"
)

// The agent codec: a versioned, length-prefixed binary encoding of
// everything that migrates (PROTOCOLS.md §3). Encoding is canonical —
// map keys are written sorted and every integer is a minimal varint —
// so Encode(Decode(b)) reproduces b for any b that Encode produced, and
// the decoder rejects every other spelling of the same agent. The
// decoder reads bytes a peer controls: every count is checked against
// the bytes left before anything is allocated, and value nesting is
// capped, so a hostile frame costs no more memory than an honest frame
// of the same size and cannot exhaust the receiver's stack.

// codecVersion is the leading byte of every encoded agent.
const codecVersion = 1

// MaxValueDepth caps vm.Value nesting in agent state and results: a
// top-level value is depth 1, each list or map level adds one. Encode
// refuses deeper values, so an agent that built one fails at its
// sender rather than at a receiver that would reject it.
const MaxValueDepth = 64

// codeDigestTag separates BundleDigest's input from every other use of
// the codec's bytes.
const codeDigestTag = "ajanta/agent-code/v1\x00"

// Errors reported by the codec, wrapped by Encode and Decode.
var (
	ErrValueTooDeep = fmt.Errorf("agent: value nesting exceeds %d", MaxValueDepth)
	ErrMalformed    = errors.New("agent: malformed encoding")
)

// encBufs recycles encoding buffers; Encode copies its result out, so a
// returned buffer is never referenced after Put.
var encBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

// maxPooledBuf keeps one agent with a large state from pinning its
// buffer in the pool.
const maxPooledBuf = 64 << 10

func getBuf() *[]byte { return encBufs.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		encBufs.Put(b)
	}
}

// encodeAgent appends the agent's encoding to buf. It does not check
// the bundle for fused code; Encode does.
func encodeAgent(buf []byte, a *Agent) ([]byte, error) {
	e := encoder{b: append(buf, codecVersion)}
	e.name(a.Name)
	e.credentials(&a.Credentials)
	e.str(a.MainModule)
	e.bundle(a.Code)
	e.state(a.State)
	e.bool(a.Initialized)
	e.uvarint(uint64(len(a.Itinerary.Stops)))
	for _, s := range a.Itinerary.Stops {
		e.uvarint(uint64(len(s.Servers)))
		for _, n := range s.Servers {
			e.name(n)
		}
		e.str(s.Entry)
	}
	e.varint(int64(a.Itinerary.Next))
	e.varint(int64(a.Hops))
	e.str(a.PendingEntry)
	e.uvarint(uint64(len(a.Results)))
	for _, v := range a.Results {
		e.value(v, 1)
	}
	e.strs(a.Log)
	e.manifest(a.Manifest)
	return e.b, e.err
}

// bundleDigest is SHA-256 over codeDigestTag and the bundle's codec
// bytes.
func bundleDigest(code []vm.Module) []byte {
	bp := getBuf()
	defer putBuf(bp)
	e := encoder{b: append(*bp, codeDigestTag...)}
	e.bundle(code)
	*bp = e.b
	sum := sha256.Sum256(e.b)
	return sum[:]
}

type encoder struct {
	b   []byte
	err error
}

func (e *encoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }

func (e *encoder) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) bytes(p []byte) {
	e.uvarint(uint64(len(p)))
	e.b = append(e.b, p...)
}

func (e *encoder) strs(ss []string) {
	e.uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

func (e *encoder) time(t time.Time) {
	e.varint(t.Unix())
	e.uvarint(uint64(t.Nanosecond()))
}

func (e *encoder) name(n names.Name) {
	e.str(string(n.Kind))
	e.str(n.Authority)
	e.str(n.Path)
}

func (e *encoder) cert(c *keys.Certificate) {
	e.name(c.Subject)
	e.bytes(c.PublicKey)
	e.time(c.NotBefore)
	e.time(c.NotAfter)
	e.name(c.Issuer)
	e.bytes(c.Signature)
}

func (e *encoder) credentials(c *cred.Credentials) {
	e.name(c.AgentName)
	e.name(c.Owner)
	e.name(c.Creator)
	e.cert(&c.OwnerCert)
	e.str(c.Rights.String())
	e.time(c.IssuedAt)
	e.time(c.Expiry)
	e.str(c.HomeSite)
	e.bytes(c.CodeDigest)
	e.bytes(c.Signature)
	e.uvarint(uint64(len(c.Delegations)))
	for i := range c.Delegations {
		d := &c.Delegations[i]
		e.name(d.Delegator)
		e.cert(&d.Cert)
		e.str(d.Rights.String())
		e.time(d.Expiry)
		e.bytes(d.Signature)
	}
}

func (e *encoder) bundle(code []vm.Module) {
	e.uvarint(uint64(len(code)))
	for i := range code {
		m := &code[i]
		e.str(m.Name)
		e.uvarint(uint64(len(m.Ints)))
		for _, v := range m.Ints {
			e.varint(v)
		}
		e.strs(m.Strs)
		e.uvarint(uint64(len(m.Fns)))
		for j := range m.Fns {
			f := &m.Fns[j]
			e.str(f.Name)
			e.varint(int64(f.NParams))
			e.varint(int64(f.NLocals))
			e.uvarint(uint64(len(f.Code)))
			for _, ins := range f.Code {
				e.b = append(e.b, byte(ins.Op))
				e.varint(int64(ins.A))
				e.varint(int64(ins.B))
			}
			e.uvarint(uint64(len(f.Pos)))
			for _, p := range f.Pos {
				e.varint(int64(p.Line))
				e.varint(int64(p.Col))
			}
			e.strs(f.LocalNames)
		}
	}
}

// sortedKeys returns m's keys in increasing order: the canonical order
// maps are written in.
func sortedKeys(m map[string]vm.Value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (e *encoder) state(m map[string]vm.Value) {
	e.uvarint(uint64(len(m)))
	for _, k := range sortedKeys(m) {
		e.str(k)
		e.value(m[k], 1)
	}
}

// value writes a kind byte followed by that kind's payload only.
func (e *encoder) value(v vm.Value, depth int) {
	if depth > MaxValueDepth {
		if e.err == nil {
			e.err = ErrValueTooDeep
		}
		return
	}
	e.b = append(e.b, byte(v.Kind))
	switch v.Kind {
	case vm.KindNil:
	case vm.KindBool:
		e.bool(v.Bool)
	case vm.KindInt:
		e.varint(v.Int)
	case vm.KindStr:
		e.str(v.Str)
	case vm.KindList:
		e.uvarint(uint64(len(v.List)))
		for _, x := range v.List {
			e.value(x, depth+1)
		}
	case vm.KindMap:
		e.uvarint(uint64(len(v.Map)))
		for _, k := range sortedKeys(v.Map) {
			e.str(k)
			e.value(v.Map[k], depth+1)
		}
	case vm.KindHandle:
		e.uvarint(v.Handle)
	default:
		if e.err == nil {
			e.err = fmt.Errorf("agent: value of unknown kind %d", v.Kind)
		}
	}
}

func (e *encoder) manifest(m *analysis.Manifest) {
	if m == nil {
		e.bool(false)
		return
	}
	e.bool(true)
	e.strs(m.HostCalls)
	e.strs(m.Resources)
	e.strs(m.Methods)
	e.strs(m.Destinations)
}

// decodeAgent parses one encoded agent. It does not check the bundle
// for fused code; Decode does.
func decodeAgent(data []byte) (*Agent, error) {
	d := decoder{buf: data}
	if v := d.byte(); v != codecVersion {
		d.fail("unknown version %d", v)
		return nil, d.err
	}
	// Decode into a local and copy it out at the end, so input that
	// fails early allocates no Agent.
	var a Agent
	a.Name = d.name()
	d.credentials(&a.Credentials)
	a.MainModule = d.str()
	a.Code = d.bundle()
	a.State = d.state()
	a.Initialized = d.bool()
	if n := d.count(2); n > 0 {
		a.Itinerary.Stops = make([]Stop, n)
		for i := range a.Itinerary.Stops {
			s := &a.Itinerary.Stops[i]
			if k := d.count(3); k > 0 {
				s.Servers = make([]names.Name, k)
				for j := range s.Servers {
					s.Servers[j] = d.name()
				}
			}
			s.Entry = d.str()
		}
	}
	a.Itinerary.Next = d.int()
	a.Hops = d.int()
	a.PendingEntry = d.str()
	if n := d.count(1); n > 0 {
		a.Results = make([]vm.Value, n)
		for i := range a.Results {
			a.Results[i] = d.value()
		}
	}
	a.Log = d.strs()
	a.Manifest = d.manifest()
	if d.err == nil && len(d.buf) > 0 {
		d.fail("%d trailing bytes", len(d.buf))
	}
	if d.err != nil {
		return nil, d.err
	}
	out := new(Agent)
	*out = a
	return out, nil
}

// decoder reads the codec. The first failure sticks: it empties buf,
// so every later read returns a zero value without allocating and the
// caller checks err once at the end.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.failErr(fmt.Errorf("%w: "+format, append([]any{ErrMalformed}, args...)...))
	}
}

func (d *decoder) failErr(err error) {
	if d.err == nil {
		d.err = err
	}
	d.buf = nil
}

func (d *decoder) byte() byte {
	if len(d.buf) == 0 {
		d.fail("truncated")
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// uvarint reads a minimal unsigned varint: a longer spelling of the
// same number would break canonicality.
func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	if n > 1 && d.buf[n-1] == 0 {
		d.fail("non-minimal varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	// Undo binary.AppendVarint's zig-zag mapping.
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail("integer %d out of range", v)
		return 0
	}
	return int(v)
}

func (d *decoder) int32() int32 {
	v := d.varint()
	if int64(int32(v)) != v {
		d.fail("integer %d out of range", v)
		return 0
	}
	return int32(v)
}

func (d *decoder) bool() bool {
	switch b := d.byte(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool %d", b)
		return false
	}
}

// count reads an element count and checks that the bytes left can hold
// that many elements of at least minSize bytes each, before the caller
// allocates anything for them.
func (d *decoder) count(minSize int) int {
	n := d.uvarint()
	if n > uint64(len(d.buf)/minSize) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.buf))
		return 0
	}
	return int(n)
}

// raw reads a length-prefixed byte string without copying it; the
// result aliases the frame and must not be retained.
func (d *decoder) raw() []byte {
	n := d.count(1)
	p := d.buf[:n:n]
	d.buf = d.buf[n:]
	return p
}

// str reads a string into its own allocation. Decoded names outlive the
// journey (name authority, resolvers, policy rules), so a string must
// never share memory with the frame.
func (d *decoder) str() string { return string(d.raw()) }

// bytes reads a byte string into its own allocation; empty decodes as
// nil.
func (d *decoder) bytes() []byte {
	if p := d.raw(); len(p) > 0 {
		return bytes.Clone(p)
	}
	return nil
}

func (d *decoder) strs() []string {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.str()
	}
	return ss
}

func (d *decoder) time() time.Time {
	sec := d.varint()
	nsec := d.uvarint()
	if nsec >= 1e9 {
		d.fail("nanoseconds %d out of range", nsec)
		return time.Time{}
	}
	// UTC leaves the zero instant equal to time.Time{}, so a zero
	// Delegation.Expiry still reports IsZero.
	return time.Unix(sec, int64(nsec)).UTC()
}

func (d *decoder) name() names.Name {
	return names.Name{Kind: names.Kind(d.str()), Authority: d.str(), Path: d.str()}
}

func (d *decoder) rights() cred.RightSet {
	s := d.str()
	rs, ok := cred.ParseCanonicalRightSet(s)
	if !ok {
		d.fail("non-canonical right set %q", s)
	}
	return rs
}

func (d *decoder) cert() keys.Certificate {
	return keys.Certificate{
		Subject:   d.name(),
		PublicKey: d.bytes(),
		NotBefore: d.time(),
		NotAfter:  d.time(),
		Issuer:    d.name(),
		Signature: d.bytes(),
	}
}

func (d *decoder) credentials(c *cred.Credentials) {
	c.AgentName = d.name()
	c.Owner = d.name()
	c.Creator = d.name()
	c.OwnerCert = d.cert()
	c.Rights = d.rights()
	c.IssuedAt = d.time()
	c.Expiry = d.time()
	c.HomeSite = d.str()
	c.CodeDigest = d.bytes()
	c.Signature = d.bytes()
	if n := d.count(19); n > 0 {
		c.Delegations = make([]cred.Delegation, n)
		for i := range c.Delegations {
			c.Delegations[i] = cred.Delegation{
				Delegator: d.name(),
				Cert:      d.cert(),
				Rights:    d.rights(),
				Expiry:    d.time(),
				Signature: d.bytes(),
			}
		}
	}
}

func (d *decoder) bundle() []vm.Module {
	n := d.count(4)
	if n == 0 {
		return nil
	}
	code := make([]vm.Module, n)
	for i := range code {
		m := &code[i]
		m.Name = d.str()
		if k := d.count(1); k > 0 {
			m.Ints = make([]int64, k)
			for j := range m.Ints {
				m.Ints[j] = d.varint()
			}
		}
		m.Strs = d.strs()
		if k := d.count(6); k > 0 {
			m.Fns = make([]vm.Func, k)
			for j := range m.Fns {
				d.fn(&m.Fns[j])
			}
		}
	}
	return code
}

func (d *decoder) fn(f *vm.Func) {
	f.Name = d.str()
	f.NParams = d.int()
	f.NLocals = d.int()
	if n := d.count(3); n > 0 {
		f.Code = make([]vm.Instr, n)
		for i := range f.Code {
			f.Code[i] = vm.Instr{Op: vm.Opcode(d.byte()), A: d.int32(), B: d.int32()}
		}
	}
	if n := d.count(2); n > 0 {
		f.Pos = make([]vm.Pos, n)
		for i := range f.Pos {
			f.Pos[i] = vm.Pos{Line: d.int32(), Col: d.int32()}
		}
	}
	f.LocalNames = d.strs()
}

// state decodes the global table; it is never nil, like New's.
func (d *decoder) state() map[string]vm.Value {
	n := d.count(2)
	m := make(map[string]vm.Value, n)
	var prev []byte
	for i := 0; i < n; i++ {
		k := d.raw()
		if i > 0 && bytes.Compare(prev, k) >= 0 {
			d.fail("state keys out of order")
		}
		prev = k
		v := d.value()
		if d.err != nil {
			break
		}
		m[string(k)] = v
	}
	return m
}

// value decodes one top-level value (depth 1). It first walks the
// value's bytes without allocating (checkValue), so a malformed or
// over-deep value is rejected before any container is made for it and
// every container is then allocated at its exact size.
func (d *decoder) value() vm.Value {
	probe := decoder{buf: d.buf}
	probe.checkValue(1)
	if probe.err != nil {
		d.failErr(probe.err)
		return vm.Value{}
	}
	return d.checkedValue()
}

// checkValue walks one value at depth, enforcing its grammar: a known
// kind, a canonical payload, strictly increasing map keys and the
// nesting cap.
func (d *decoder) checkValue(depth int) {
	if depth > MaxValueDepth {
		d.failErr(ErrValueTooDeep)
		return
	}
	switch k := vm.Kind(d.byte()); k {
	case vm.KindNil:
	case vm.KindBool:
		d.bool()
	case vm.KindInt:
		d.varint()
	case vm.KindStr:
		d.raw()
	case vm.KindList:
		for n := d.count(1); n > 0 && d.err == nil; n-- {
			d.checkValue(depth + 1)
		}
	case vm.KindMap:
		n := d.count(2)
		var prev []byte
		for i := 0; i < n && d.err == nil; i++ {
			k := d.raw()
			if i > 0 && bytes.Compare(prev, k) >= 0 {
				d.fail("map keys out of order")
			}
			prev = k
			d.checkValue(depth + 1)
		}
	case vm.KindHandle:
		d.uvarint()
	default:
		d.fail("value of unknown kind %d", k)
	}
}

// checkedValue decodes a value checkValue has accepted. Maps decode
// non-nil, so the VM can store into them after migration.
func (d *decoder) checkedValue() vm.Value {
	switch k := vm.Kind(d.byte()); k {
	case vm.KindBool:
		return vm.B(d.bool())
	case vm.KindInt:
		return vm.I(d.varint())
	case vm.KindStr:
		return vm.S(d.str())
	case vm.KindList:
		v := vm.Value{Kind: vm.KindList}
		if n := d.count(1); n > 0 {
			v.List = make([]vm.Value, n)
			for i := range v.List {
				v.List[i] = d.checkedValue()
			}
		}
		return v
	case vm.KindMap:
		n := d.count(2)
		m := make(map[string]vm.Value, n)
		for i := 0; i < n; i++ {
			k := d.str()
			m[k] = d.checkedValue()
		}
		return vm.Value{Kind: vm.KindMap, Map: m}
	case vm.KindHandle:
		return vm.H(d.uvarint())
	default:
		return vm.Value{}
	}
}

func (d *decoder) manifest() *analysis.Manifest {
	if !d.bool() {
		return nil
	}
	return &analysis.Manifest{
		HostCalls:    d.strs(),
		Resources:    d.strs(),
		Methods:      d.strs(),
		Destinations: d.strs(),
	}
}
