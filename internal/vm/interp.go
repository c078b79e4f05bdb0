package vm

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
)

// Interpreter limits. MaxFrames bounds recursion depth; both exist to
// contain malicious or buggy agents (DoS protection, §2).
const (
	DefaultMaxFrames = 256
	DefaultFuel      = 10_000_000
)

// FuelWindow is the reservation granularity of the fast interpreter:
// the number of instructions an activity prepays from its shared Meter
// in one atomic operation. Larger windows amortize the atomics further;
// smaller windows tighten the abort-latency bound (an Abort from
// another goroutine is observed at the next window refill, i.e. within
// at most FuelWindow instructions) and the transient over-report of
// Used() while a run is in flight. At settlement the unspent remainder
// is refunded, so Used() is exact — equal to the naive per-instruction
// accounting — whenever no Run is active on the meter.
const FuelWindow = 128

// Runtime errors.
var (
	ErrFuelExhausted = errors.New("vm: instruction quota exhausted")
	ErrTrap          = errors.New("vm: trap")
	ErrNoFunction    = errors.New("vm: no such function")
	ErrStackOverflow = errors.New("vm: call stack overflow")
)

func trap(m *Module, f *Func, pc int, format string, args ...any) error {
	return fmt.Errorf("%w: %s.%s@%d: %s", ErrTrap, m.Name, f.Name, pc, fmt.Sprintf(format, args...))
}

// depthTrap is the trap for comparing a value nested past
// MaxValueDepth; nil when both operands are within it.
func depthTrap(m *Module, f *Func, pc int, a, b Value) error {
	if a.CheckDepth() == nil && b.CheckDepth() == nil {
		return nil
	}
	return fmt.Errorf("%w: %s.%s@%d: %w", ErrTrap, m.Name, f.Name, pc, ErrValueTooDeep)
}

// Meter charges executed instructions against a budget. It is shared by
// every frame of an execution (and may be shared across an agent's whole
// visit). Thread-safe so a server can inspect usage concurrently and
// abort a runaway activity from another goroutine.
//
// The fast interpreter does not charge per instruction: it reserves
// FuelWindow instructions at a time (refill), burns them from a local
// counter, and refunds the unspent remainder at settlement (refund).
// Used() therefore over-reports by at most one window while a run is in
// flight and is exact at every settlement point.
type Meter struct {
	limit   uint64
	used    atomic.Uint64
	aborted atomic.Bool
}

// ErrAborted is returned once a meter has been aborted (e.g. the agent
// was killed by its owner or the server).
var ErrAborted = errors.New("vm: execution aborted")

// Abort makes every subsequent Charge fail, stopping the activity
// within at most one reservation window (and before its next host
// call).
func (mt *Meter) Abort() {
	if mt != nil {
		mt.aborted.Store(true)
	}
}

// NewMeter returns a meter with the given instruction budget; limit 0
// means unlimited.
func NewMeter(limit uint64) *Meter { return &Meter{limit: limit} }

// Charge consumes n instructions, failing once the budget is exceeded
// or the meter has been aborted. This is the naive per-call interface,
// kept for host-side accounting and the preserved baseline interpreter;
// the fast interpreter goes through refill/refund.
func (mt *Meter) Charge(n uint64) error {
	if mt == nil {
		return nil
	}
	if mt.aborted.Load() {
		return ErrAborted
	}
	if mt.limit == 0 {
		mt.used.Add(n)
		return nil
	}
	if mt.used.Add(n) > mt.limit {
		return ErrFuelExhausted
	}
	return nil
}

// refill reserves up to want instructions, returning the granted count.
// A grant is charged to used immediately; the unspent part must be
// returned via refund at settlement. On exhaustion it charges one extra
// unit and fails — exactly the accounting of a failing naive Charge(1),
// which keeps Used() identical to per-instruction metering on the
// exhaustion path.
func (mt *Meter) refill(want uint64) (uint64, error) {
	if mt.aborted.Load() {
		return 0, ErrAborted
	}
	if mt.limit == 0 {
		mt.used.Add(want)
		return want, nil
	}
	for {
		u := mt.used.Load()
		if u >= mt.limit {
			mt.used.Add(1)
			return 0, ErrFuelExhausted
		}
		grant := mt.limit - u
		if grant > want {
			grant = want
		}
		if mt.used.CompareAndSwap(u, u+grant) {
			return grant, nil
		}
	}
}

// refund returns n unspent reserved instructions.
func (mt *Meter) refund(n uint64) {
	if mt == nil || n == 0 {
		return
	}
	mt.used.Add(^(n - 1))
}

// topUp grows a local reservation of have instructions until it covers
// need, then consumes need and returns the remainder. On abort the
// accumulated (unexecuted) reservation is refunded; on exhaustion the
// partial grants stay charged, mirroring the naive interpreter whose
// successful Charges before the failing one are never unwound. Either
// way the caller's local fuel is spent (0 is returned), so settlement
// refunds nothing extra.
func (mt *Meter) topUp(have, need uint64) (uint64, error) {
	if mt == nil {
		return ^uint64(0), nil
	}
	for have < need {
		g, err := mt.refill(FuelWindow)
		if err != nil {
			if errors.Is(err, ErrAborted) {
				mt.refund(have)
			}
			return 0, err
		}
		have += g
	}
	return have - need, nil
}

// Used reports instructions consumed so far. While a Run is in flight
// on this meter the value may transiently include up to one unspent
// reservation window; at settlement (whenever no Run is active) it is
// exact.
func (mt *Meter) Used() uint64 {
	if mt == nil {
		return 0
	}
	return mt.used.Load()
}

// Limit reports the configured budget (0 = unlimited).
func (mt *Meter) Limit() uint64 {
	if mt == nil {
		return 0
	}
	return mt.limit
}

// HostFunc is a host-provided primitive. Host functions are the *only*
// way agent code affects anything outside its own state; servers install
// them already wrapped in security-manager checks.
type HostFunc func(args []Value) (Value, error)

// Resolver resolves cross-module calls ("module:function" or a bare
// function name). The loader package provides the namespace-separating
// implementation; tests may use a single module via ModuleResolver.
type Resolver interface {
	ResolveFunc(name string) (*Module, *Func, error)
}

// EpochResolver is a Resolver whose resolution function can change over
// time (e.g. a namespace into which trusted modules are installed). The
// epoch must increase whenever an existing name could resolve
// differently; the interpreter keys its call-site inline caches on it.
// Cache invalidation is observed at Run boundaries: an epoch bump
// during a Run takes effect for call sites cached before the bump at
// the next Run on that environment (uncached sites always resolve
// through the live Resolver).
type EpochResolver interface {
	Resolver
	Epoch() uint64
}

// ModuleResolver resolves names within one module only.
type ModuleResolver struct{ M *Module }

// ResolveFunc implements Resolver.
func (r ModuleResolver) ResolveFunc(name string) (*Module, *Func, error) {
	if _, f := r.M.Fn(name); f != nil {
		return r.M, f, nil
	}
	return nil, nil, fmt.Errorf("%w: %q", ErrNoFunction, name)
}

// Env is the execution environment of one activity: the agent's global
// state, the host-call table, the namespace resolver, and the meter.
// The env also carries an opaque Owner tag that host functions may use
// to identify the calling protection domain; agent code cannot read or
// forge it.
//
// An Env is single-activity state: it must not execute concurrent Runs
// (nested Runs from within a host call are fine). While a Run is in
// flight, Globals is not live: the interpreter snapshots globals into
// dense slots at the outermost Run entry and flushes modified slots
// back when that Run settles. Host functions must therefore not read or
// write Env.Globals mid-run — they receive and return Values through
// their arguments instead. Between Runs, Globals is authoritative and
// may be freely inspected or mutated.
type Env struct {
	Globals   map[string]Value
	Host      map[string]HostFunc
	Resolver  Resolver
	Meter     *Meter
	MaxFrames int
	// Owner is an opaque host-side tag (the protection-domain ID in
	// the server). It never appears as a Value.
	Owner any

	// depth counts nested Run activations; globals sync in at 0→1 and
	// flush back at 1→0.
	depth int
	// act is the reusable execution arena of the outermost Run.
	act *activity
	// Dense global slots: gidx maps a global's name to its slot, gslots
	// holds the live values during a Run, gdirty marks slots written
	// since the last flush (so never-written globals don't materialize
	// map entries).
	gidx   map[string]int32
	gslots []Value
	gdirty []bool
}

// NewEnv returns an environment with empty state and defaults.
func NewEnv() *Env {
	return &Env{
		Globals:   make(map[string]Value),
		Host:      make(map[string]HostFunc),
		Resolver:  nil,
		Meter:     NewMeter(DefaultFuel),
		MaxFrames: DefaultMaxFrames,
	}
}

// globalSlot returns the dense slot of the named global, creating it
// (initialized from the Globals map) on first use.
func (env *Env) globalSlot(name string) int32 {
	if i, ok := env.gidx[name]; ok {
		return i
	}
	if env.gidx == nil {
		env.gidx = make(map[string]int32)
	}
	i := int32(len(env.gslots))
	env.gidx[name] = i
	env.gslots = append(env.gslots, env.Globals[name])
	env.gdirty = append(env.gdirty, false)
	return i
}

// syncGlobalsIn refreshes every known slot from the Globals map. Runs
// at the outermost Run entry so host-side mutations between Runs (state
// sanitization, checkpoint restore, test setup) are observed.
func (env *Env) syncGlobalsIn() {
	for name, i := range env.gidx {
		env.gslots[i] = env.Globals[name]
		env.gdirty[i] = false
	}
}

// flushGlobals writes modified slots back to the Globals map at the
// outermost Run settlement (on success and on every error path alike).
func (env *Env) flushGlobals() {
	for name, i := range env.gidx {
		if env.gdirty[i] {
			if env.Globals == nil {
				env.Globals = make(map[string]Value)
			}
			env.Globals[name] = env.gslots[i]
			env.gdirty[i] = false
		}
	}
}

// frameRec is a suspended caller frame. Frames are indices into the
// shared value-stack arena, not per-frame allocations: base is where
// the frame's locals start, and the callee's locals overlap the
// arguments the caller pushed.
type frameRec struct {
	m     *Module
	f     *Func
	sites []siteCache
	ip    int
	base  int
}

// activity is the reusable execution arena of one Env: the contiguous
// value stack every frame lives in, and the suspended-frame stack.
// Both retain their capacity across Runs, which is what makes the
// steady-state call path allocation-free.
type activity struct {
	stack  []Value
	frames []frameRec
}

// grow reallocates the arena to hold at least n values and returns it.
func (act *activity) grow(n int) []Value {
	c := 2*cap(act.stack) + 64
	if c < n {
		c = n
	}
	ns := make([]Value, c)
	copy(ns, act.stack)
	act.stack = ns
	return ns
}

// Run executes function fname of module m with the given arguments and
// returns its result. The module must already be verified — Run assumes
// structural validity (bounds) established by Verify, but still guards
// dynamic properties (types, division by zero, index range).
//
// Run executes both canonical modules and the prepared execution copies
// built by Prepare (which carry fused superinstructions and inline-cache
// tables); semantics, error classes and settled fuel accounting are
// identical either way.
func Run(env *Env, m *Module, fname string, args ...Value) (Value, error) {
	_, f := m.Fn(fname)
	if f == nil {
		return Nil(), fmt.Errorf("%w: %s.%s", ErrNoFunction, m.Name, fname)
	}
	if len(args) != f.NParams {
		return Nil(), fmt.Errorf("%w: %s.%s wants %d args, got %d", ErrTrap, m.Name, fname, f.NParams, len(args))
	}
	maxFrames := env.MaxFrames
	if maxFrames == 0 {
		maxFrames = DefaultMaxFrames
	}

	var act *activity
	if env.depth == 0 {
		if env.act == nil {
			env.act = &activity{}
		}
		act = env.act
		env.syncGlobalsIn()
	} else {
		// Nested Run from within a host call: the outer Run owns
		// env.act, so this (rare, correctness-only) path gets a fresh
		// arena. Global slots are shared through env, so both nesting
		// levels see one consistent view.
		act = &activity{}
	}
	env.depth++
	defer func() {
		env.depth--
		if env.depth == 0 {
			env.flushGlobals()
		}
	}()
	return env.exec(act, m, f, args, maxFrames)
}

// fusedCmpBase maps a fused compare-and-branch opcode to the canonical
// comparison it stands for (used so trap messages match the naive
// interpreter's exactly).
func fusedCmpBase(op Opcode) Opcode {
	switch op {
	case OpLtJF:
		return OpLt
	case OpLeJF:
		return OpLe
	case OpGtJF:
		return OpGt
	default:
		return OpGe
	}
}

// cmpOrder returns the ordering of two values (-1, 0, 1) and whether
// they are ordered at all (two ints or two strings).
func cmpOrder(a, b Value) (int, bool) {
	switch {
	case a.Kind == KindInt && b.Kind == KindInt:
		switch {
		case a.Int < b.Int:
			return -1, true
		case a.Int > b.Int:
			return 1, true
		}
		return 0, true
	case a.Kind == KindStr && b.Kind == KindStr:
		switch {
		case a.Str < b.Str:
			return -1, true
		case a.Str > b.Str:
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// exec is the interpreter core. The hot state of the current frame —
// code, ip, stack pointer, frame base, the local fuel reservation —
// lives in locals so the compiler can keep it in registers; it is
// spilled to a frameRec only across calls. There is a single settlement
// point (after the labeled loop) where the unspent fuel reservation is
// refunded, so Used() is exact on every return path.
func (env *Env) exec(act *activity, m *Module, f *Func, args []Value, maxFrames int) (Value, error) {
	meter := env.Meter

	// Inline-cache ownership for named-call sites. Caching requires a
	// comparable resolver (so a cached site can be revalidated with ==);
	// func-typed test resolvers simply resolve through the slow path.
	var curEpoch uint64
	resCmp := env.Resolver != nil && reflect.TypeOf(env.Resolver).Comparable()
	if er, ok := env.Resolver.(EpochResolver); ok {
		curEpoch = er.Epoch()
	}

	// Entry frame.
	curM, curF := m, f
	frames := act.frames[:0]
	stk := act.stack
	base := 0
	var sites []siteCache
	var bound int
	if rt := curF.rt; rt != nil {
		sites = rt.sites
		bound = rt.maxStack
	} else {
		bound = conservativeStackBound(curF)
	}
	if need := curF.NLocals + bound; need > len(stk) {
		stk = act.grow(need)
	}
	copy(stk, args)
	for i := len(args); i < curF.NLocals; i++ {
		stk[i] = Value{}
	}
	sp := curF.NLocals
	ip := 0
	code := curF.Code

	// fuel is the local reservation: instructions prepaid to the meter
	// but not yet executed. With no meter it starts effectively
	// infinite and the refill path is never taken.
	var fuel uint64
	if meter == nil {
		fuel = ^uint64(0)
	}

	var rv Value
	var rerr error

loop:
	for {
		if fuel == 0 {
			fuel, rerr = meter.topUp(0, 1)
			if rerr != nil {
				break loop
			}
		} else {
			fuel--
		}
		ins := code[ip]
		ip++
		switch ins.Op {
		case OpNop:
		case OpPushInt:
			stk[sp] = I(curM.Ints[ins.A])
			sp++
		case OpPushStr:
			stk[sp] = S(curM.Strs[ins.A])
			sp++
		case OpPushTrue:
			stk[sp] = B(true)
			sp++
		case OpPushFalse:
			stk[sp] = B(false)
			sp++
		case OpPushNil:
			stk[sp] = Nil()
			sp++
		case OpLoadLocal:
			stk[sp] = stk[base+int(ins.A)]
			sp++
		case OpStoreLocal:
			sp--
			stk[base+int(ins.A)] = stk[sp]
		case OpLoadGlobal:
			var slot int32
			if sites != nil {
				s := &sites[ip-1]
				if s.env == env {
					slot = s.slot
				} else {
					slot = env.globalSlot(curM.Strs[ins.A])
					s.env, s.slot = env, slot
				}
			} else {
				slot = env.globalSlot(curM.Strs[ins.A])
			}
			stk[sp] = env.gslots[slot]
			sp++
		case OpStoreGlobal:
			var slot int32
			if sites != nil {
				s := &sites[ip-1]
				if s.env == env {
					slot = s.slot
				} else {
					slot = env.globalSlot(curM.Strs[ins.A])
					s.env, s.slot = env, slot
				}
			} else {
				slot = env.globalSlot(curM.Strs[ins.A])
			}
			sp--
			env.gslots[slot] = stk[sp]
			env.gdirty[slot] = true
		case OpAdd, OpSub, OpMul, OpDiv, OpMod:
			b, a := stk[sp-1], stk[sp-2]
			sp--
			if a.Kind == KindInt && b.Kind == KindInt {
				var r int64
				switch ins.Op {
				case OpAdd:
					r = a.Int + b.Int
				case OpSub:
					r = a.Int - b.Int
				case OpMul:
					r = a.Int * b.Int
				case OpDiv:
					if b.Int == 0 {
						rerr = trap(curM, curF, ip-1, "division by zero")
						break loop
					}
					r = a.Int / b.Int
				default:
					if b.Int == 0 {
						rerr = trap(curM, curF, ip-1, "modulo by zero")
						break loop
					}
					r = a.Int % b.Int
				}
				stk[sp-1] = I(r)
			} else if ins.Op == OpAdd && a.Kind == KindStr && b.Kind == KindStr {
				// String concatenation rides on Add.
				stk[sp-1] = S(a.Str + b.Str)
			} else {
				rerr = trap(curM, curF, ip-1, "%s of %s and %s", ins.Op, a.Kind, b.Kind)
				break loop
			}
		case OpNeg:
			a := stk[sp-1]
			if a.Kind != KindInt {
				rerr = trap(curM, curF, ip-1, "neg of %s", a.Kind)
				break loop
			}
			stk[sp-1] = I(-a.Int)
		case OpEq, OpNe:
			b, a := stk[sp-1], stk[sp-2]
			if a.nested() || b.nested() {
				if rerr = depthTrap(curM, curF, ip-1, a, b); rerr != nil {
					break loop
				}
			}
			sp--
			stk[sp-1] = B(a.Equal(b) == (ins.Op == OpEq))
		case OpLt, OpLe, OpGt, OpGe:
			b, a := stk[sp-1], stk[sp-2]
			sp--
			c, ok := cmpOrder(a, b)
			if !ok {
				rerr = trap(curM, curF, ip-1, "%s of %s and %s", ins.Op, a.Kind, b.Kind)
				break loop
			}
			var t bool
			switch ins.Op {
			case OpLt:
				t = c < 0
			case OpLe:
				t = c <= 0
			case OpGt:
				t = c > 0
			default:
				t = c >= 0
			}
			stk[sp-1] = B(t)
		case OpNot:
			stk[sp-1] = B(!stk[sp-1].Truthy())
		case OpJump:
			ip = int(ins.A)
		case OpJumpIfFalse:
			sp--
			if !stk[sp].Truthy() {
				ip = int(ins.A)
			}
		case OpJumpIfTrue:
			sp--
			if stk[sp].Truthy() {
				ip = int(ins.A)
			}
		case OpCall:
			cm, cf := curM, &curM.Fns[ins.A]
			argc := int(ins.B)
			if len(frames)+1 >= maxFrames {
				rerr = ErrStackOverflow
				break loop
			}
			frames = append(frames, frameRec{m: curM, f: curF, sites: sites, ip: ip, base: base})
			base = sp - argc
			curM, curF = cm, cf
			code = curF.Code
			if rt := curF.rt; rt != nil {
				sites = rt.sites
				bound = rt.maxStack
			} else {
				sites = nil
				bound = conservativeStackBound(curF)
			}
			if need := base + curF.NLocals + bound; need > len(stk) {
				stk = act.grow(need)
			}
			for i := base + argc; i < base+curF.NLocals; i++ {
				stk[i] = Value{}
			}
			sp = base + curF.NLocals
			ip = 0
		case OpCallNamed:
			var cm *Module
			var cf *Func
			if sites != nil {
				if s := &sites[ip-1]; s.fn != nil && s.res == env.Resolver && s.epoch == curEpoch {
					cm, cf = s.mod, s.fn
				}
			}
			if cf == nil {
				name := curM.Strs[ins.A]
				if env.Resolver == nil {
					rerr = trap(curM, curF, ip-1, "no resolver for %q", name)
					break loop
				}
				var err error
				cm, cf, err = env.Resolver.ResolveFunc(name)
				if err != nil {
					rerr = trap(curM, curF, ip-1, "resolve %q: %v", name, err)
					break loop
				}
				if cf.NParams != int(ins.B) {
					rerr = trap(curM, curF, ip-1, "%q wants %d args, got %d", name, cf.NParams, ins.B)
					break loop
				}
				if sites != nil && resCmp {
					sites[ip-1] = siteCache{res: env.Resolver, epoch: curEpoch, mod: cm, fn: cf}
				}
			}
			argc := int(ins.B)
			if len(frames)+1 >= maxFrames {
				rerr = ErrStackOverflow
				break loop
			}
			frames = append(frames, frameRec{m: curM, f: curF, sites: sites, ip: ip, base: base})
			base = sp - argc
			curM, curF = cm, cf
			code = curF.Code
			if rt := curF.rt; rt != nil {
				sites = rt.sites
				bound = rt.maxStack
			} else {
				sites = nil
				bound = conservativeStackBound(curF)
			}
			if need := base + curF.NLocals + bound; need > len(stk) {
				stk = act.grow(need)
			}
			for i := base + argc; i < base+curF.NLocals; i++ {
				stk[i] = Value{}
			}
			sp = base + curF.NLocals
			ip = 0
		case OpHostCall:
			var hf HostFunc
			if sites != nil {
				if s := &sites[ip-1]; s.host != nil && s.env == env {
					hf = s.host
				}
			}
			if hf == nil {
				name := curM.Strs[ins.A]
				hf = env.Host[name]
				if hf == nil {
					rerr = trap(curM, curF, ip-1, "no host function %q", name)
					break loop
				}
				if sites != nil {
					s := &sites[ip-1]
					s.env, s.host = env, hf
				}
			}
			// Observe a cross-goroutine Abort before crossing into host
			// code, so abort latency is bounded by one reservation
			// window of pure bytecode OR one host call, whichever comes
			// first.
			if meter != nil && meter.aborted.Load() {
				rerr = ErrAborted
				break loop
			}
			argc := int(ins.B)
			hargs := make([]Value, argc)
			copy(hargs, stk[sp-argc:sp])
			sp -= argc
			v, err := hf(hargs)
			if err != nil {
				// Host errors abort execution and surface to the
				// server (which distinguishes migration requests,
				// security denials and plain failures).
				rerr = err
				break loop
			}
			stk[sp] = v
			sp++
		case OpReturn:
			sp--
			v := stk[sp]
			if len(frames) == 0 {
				rv = v
				break loop
			}
			fr := &frames[len(frames)-1]
			stk[base] = v
			sp = base + 1
			curM, curF, sites, ip, base = fr.m, fr.f, fr.sites, fr.ip, fr.base
			code = curF.Code
			frames = frames[:len(frames)-1]
		case OpPop:
			sp--
		case OpDup:
			stk[sp] = stk[sp-1]
			sp++
		case OpMakeList:
			n := int(ins.A)
			elems := make([]Value, n)
			copy(elems, stk[sp-n:sp])
			sp -= n
			stk[sp] = L(elems...)
			sp++
		case OpIndex:
			idx, agg := stk[sp-1], stk[sp-2]
			v, err := index(curM, curF, ip-1, agg, idx)
			if err != nil {
				rerr = err
				break loop
			}
			sp--
			stk[sp-1] = v
		case OpSetIndex:
			val, idx, agg := stk[sp-1], stk[sp-2], stk[sp-3]
			if err := setIndex(curM, curF, ip-1, agg, idx, val); err != nil {
				rerr = err
				break loop
			}
			sp -= 2
			stk[sp-1] = Nil()
		case OpMakeMap:
			n := 2 * int(ins.A)
			mm := make(map[string]Value, ins.A)
			bad := false
			for i := sp - n; i < sp; i += 2 {
				if stk[i].Kind != KindStr {
					rerr = trap(curM, curF, ip-1, "map key is %s, want str", stk[i].Kind)
					bad = true
					break
				}
				mm[stk[i].Str] = stk[i+1]
			}
			if bad {
				break loop
			}
			sp -= n
			stk[sp] = M(mm)
			sp++
		case OpHalt:
			sp--
			rv = stk[sp]
			break loop

		case OpLLIAdd, OpLLISub:
			// Covers loadl;pushint;{add,sub}: 3 canonical instructions,
			// so 2 units beyond the dispatch charge — all upfront, which
			// matches the naive accounting because the only trap is at
			// the third component.
			if fuel >= 2 {
				fuel -= 2
			} else {
				fuel, rerr = meter.topUp(fuel, 2)
				if rerr != nil {
					break loop
				}
			}
			a := stk[base+int(ins.A)]
			if a.Kind != KindInt {
				op := OpAdd
				if ins.Op == OpLLISub {
					op = OpSub
				}
				rerr = trap(curM, curF, ip+1, "%s of %s and %s", op, a.Kind, KindInt)
				break loop
			}
			if ins.Op == OpLLIAdd {
				stk[sp] = I(a.Int + curM.Ints[ins.B])
			} else {
				stk[sp] = I(a.Int - curM.Ints[ins.B])
			}
			sp++
			ip += 2
		case OpLLILt, OpLLILe:
			if fuel >= 2 {
				fuel -= 2
			} else {
				fuel, rerr = meter.topUp(fuel, 2)
				if rerr != nil {
					break loop
				}
			}
			a := stk[base+int(ins.A)]
			if a.Kind != KindInt {
				op := OpLt
				if ins.Op == OpLLILe {
					op = OpLe
				}
				rerr = trap(curM, curF, ip+1, "%s of %s and %s", op, a.Kind, KindInt)
				break loop
			}
			c := curM.Ints[ins.B]
			var t bool
			if ins.Op == OpLLILt {
				t = a.Int < c
			} else {
				t = a.Int <= c
			}
			stk[sp] = B(t)
			sp++
			ip += 2
		case OpLLLL:
			if fuel >= 1 {
				fuel--
			} else {
				fuel, rerr = meter.topUp(fuel, 1)
				if rerr != nil {
					break loop
				}
			}
			stk[sp] = stk[base+int(ins.A)]
			stk[sp+1] = stk[base+int(ins.B)]
			sp += 2
			ip++
		case OpEqJF, OpNeJF:
			b, a := stk[sp-1], stk[sp-2]
			sp -= 2
			if a.nested() || b.nested() {
				if rerr = depthTrap(curM, curF, ip-1, a, b); rerr != nil {
					break loop
				}
			}
			cond := a.Equal(b) == (ins.Op == OpEqJF)
			// The branch half is charged separately *after* the compare
			// executed: on a compare trap (here, an operand nested past
			// MaxValueDepth) the naive interpreter never reaches the jz
			// charge, and fuel parity must hold on trap paths too.
			if fuel >= 1 {
				fuel--
			} else {
				fuel, rerr = meter.topUp(fuel, 1)
				if rerr != nil {
					break loop
				}
			}
			if !cond {
				ip = int(ins.A)
			} else {
				ip++
			}
		case OpLtJF, OpLeJF, OpGtJF, OpGeJF:
			b, a := stk[sp-1], stk[sp-2]
			sp -= 2
			c, ok := cmpOrder(a, b)
			if !ok {
				rerr = trap(curM, curF, ip-1, "%s of %s and %s", fusedCmpBase(ins.Op), a.Kind, b.Kind)
				break loop
			}
			var cond bool
			switch ins.Op {
			case OpLtJF:
				cond = c < 0
			case OpLeJF:
				cond = c <= 0
			case OpGtJF:
				cond = c > 0
			default:
				cond = c >= 0
			}
			if fuel >= 1 {
				fuel--
			} else {
				fuel, rerr = meter.topUp(fuel, 1)
				if rerr != nil {
					break loop
				}
			}
			if !cond {
				ip = int(ins.A)
			} else {
				ip++
			}
		case OpPushIntRet:
			if fuel >= 1 {
				fuel--
			} else {
				fuel, rerr = meter.topUp(fuel, 1)
				if rerr != nil {
					break loop
				}
			}
			v := I(curM.Ints[ins.A])
			if len(frames) == 0 {
				rv = v
				break loop
			}
			fr := &frames[len(frames)-1]
			stk[base] = v
			sp = base + 1
			curM, curF, sites, ip, base = fr.m, fr.f, fr.sites, fr.ip, fr.base
			code = curF.Code
			frames = frames[:len(frames)-1]

		default:
			rerr = trap(curM, curF, ip-1, "unknown opcode %d", ins.Op)
			break loop
		}
	}

	// Single settlement point: give back the unspent reservation (error
	// paths that must keep their charges — exhaustion — zero fuel before
	// breaking) and park the arena for the next Run.
	if meter != nil {
		meter.refund(fuel)
	}
	act.stack = stk
	act.frames = frames[:0]
	return rv, rerr
}

func index(m *Module, f *Func, pc int, agg, idx Value) (Value, error) {
	switch agg.Kind {
	case KindList:
		if idx.Kind != KindInt {
			return Nil(), trap(m, f, pc, "list index is %s", idx.Kind)
		}
		if idx.Int < 0 || idx.Int >= int64(len(agg.List)) {
			return Nil(), trap(m, f, pc, "index %d out of range (len %d)", idx.Int, len(agg.List))
		}
		return agg.List[idx.Int], nil
	case KindMap:
		if idx.Kind != KindStr {
			return Nil(), trap(m, f, pc, "map key is %s", idx.Kind)
		}
		return agg.Map[idx.Str], nil
	case KindStr:
		if idx.Kind != KindInt {
			return Nil(), trap(m, f, pc, "string index is %s", idx.Kind)
		}
		if idx.Int < 0 || idx.Int >= int64(len(agg.Str)) {
			return Nil(), trap(m, f, pc, "index %d out of range (len %d)", idx.Int, len(agg.Str))
		}
		return S(string(agg.Str[idx.Int])), nil
	default:
		return Nil(), trap(m, f, pc, "cannot index %s", agg.Kind)
	}
}

func setIndex(m *Module, f *Func, pc int, agg, idx, val Value) error {
	switch agg.Kind {
	case KindList:
		if idx.Kind != KindInt {
			return trap(m, f, pc, "list index is %s", idx.Kind)
		}
		if idx.Int < 0 || idx.Int >= int64(len(agg.List)) {
			return trap(m, f, pc, "index %d out of range (len %d)", idx.Int, len(agg.List))
		}
		agg.List[idx.Int] = val
		return nil
	case KindMap:
		if idx.Kind != KindStr {
			return trap(m, f, pc, "map key is %s", idx.Kind)
		}
		agg.Map[idx.Str] = val
		return nil
	default:
		return trap(m, f, pc, "cannot set-index %s", agg.Kind)
	}
}
