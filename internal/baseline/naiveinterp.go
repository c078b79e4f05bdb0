package baseline

import (
	"fmt"

	"repro/internal/vm"
)

// NaiveInterp preserves the original (pre-fast-path) VM interpreter so
// the C14 benchmark can compare the optimized vm.Run against it, the
// same role MutexProxyDesign and CoarseDomainDB play for their
// refactors. It executes canonical (unfused) bytecode only: fused
// superinstructions produced by vm.Prepare trap as unknown opcodes,
// exactly as this interpreter behaved before they existed.
//
// Behavioral contract (what the differential fuzzer in internal/vm
// asserts against the fast interpreter):
//
//   - one Meter.Charge(1) per executed instruction, so Used() counts
//     every dispatched instruction including the failing charge;
//   - per-frame locals/stack slices allocated per call (the allocation
//     profile the arena rewrite eliminates);
//   - identical trap conditions, error classes, and result values.
//
// The only deliberate deviation from the seed code: MaxFrames == 0 is
// defaulted in a local instead of being written back to the caller's
// shared Env (that write-back was a bug, fixed in both interpreters).
type NaiveInterp struct{}

type nframe struct {
	m      *vm.Module
	f      *vm.Func
	ip     int
	locals []vm.Value
	stack  []vm.Value
}

func ntrap(m *vm.Module, f *vm.Func, pc int, format string, args ...any) error {
	return fmt.Errorf("%w: %s.%s@%d: %s", vm.ErrTrap, m.Name, f.Name, pc, fmt.Sprintf(format, args...))
}

// Run executes function fname of module m exactly as the seed
// interpreter did. The module must already be verified.
func (NaiveInterp) Run(env *vm.Env, m *vm.Module, fname string, args ...vm.Value) (vm.Value, error) {
	_, f := m.Fn(fname)
	if f == nil {
		return vm.Nil(), fmt.Errorf("%w: %s.%s", vm.ErrNoFunction, m.Name, fname)
	}
	if len(args) != f.NParams {
		return vm.Nil(), fmt.Errorf("%w: %s.%s wants %d args, got %d", vm.ErrTrap, m.Name, fname, f.NParams, len(args))
	}
	maxFrames := env.MaxFrames
	if maxFrames == 0 {
		maxFrames = vm.DefaultMaxFrames
	}
	frames := make([]*nframe, 0, 8)
	frames = append(frames, newNFrame(m, f, args))

	for {
		fr := frames[len(frames)-1]
		if err := env.Meter.Charge(1); err != nil {
			return vm.Nil(), err
		}
		ins := fr.f.Code[fr.ip]
		fr.ip++
		switch ins.Op {
		case vm.OpNop:
		case vm.OpPushInt:
			fr.push(vm.I(fr.m.Ints[ins.A]))
		case vm.OpPushStr:
			fr.push(vm.S(fr.m.Strs[ins.A]))
		case vm.OpPushTrue:
			fr.push(vm.B(true))
		case vm.OpPushFalse:
			fr.push(vm.B(false))
		case vm.OpPushNil:
			fr.push(vm.Nil())
		case vm.OpLoadLocal:
			fr.push(fr.locals[ins.A])
		case vm.OpStoreLocal:
			fr.locals[ins.A] = fr.pop()
		case vm.OpLoadGlobal:
			fr.push(env.Globals[fr.m.Strs[ins.A]])
		case vm.OpStoreGlobal:
			env.Globals[fr.m.Strs[ins.A]] = fr.pop()
		case vm.OpAdd, vm.OpSub, vm.OpMul, vm.OpDiv, vm.OpMod:
			b, a := fr.pop(), fr.pop()
			v, err := narith(fr, ins.Op, a, b)
			if err != nil {
				return vm.Nil(), err
			}
			fr.push(v)
		case vm.OpNeg:
			a := fr.pop()
			if a.Kind != vm.KindInt {
				return vm.Nil(), ntrap(fr.m, fr.f, fr.ip-1, "neg of %s", a.Kind)
			}
			fr.push(vm.I(-a.Int))
		case vm.OpEq, vm.OpNe:
			b, a := fr.pop(), fr.pop()
			if a.CheckDepth() != nil || b.CheckDepth() != nil {
				return vm.Nil(), fmt.Errorf("%w: %s.%s@%d: %w", vm.ErrTrap, fr.m.Name, fr.f.Name, fr.ip-1, vm.ErrValueTooDeep)
			}
			fr.push(vm.B(a.Equal(b) == (ins.Op == vm.OpEq)))
		case vm.OpLt, vm.OpLe, vm.OpGt, vm.OpGe:
			b, a := fr.pop(), fr.pop()
			v, err := ncompare(fr, ins.Op, a, b)
			if err != nil {
				return vm.Nil(), err
			}
			fr.push(v)
		case vm.OpNot:
			fr.push(vm.B(!fr.pop().Truthy()))
		case vm.OpJump:
			fr.ip = int(ins.A)
		case vm.OpJumpIfFalse:
			if !fr.pop().Truthy() {
				fr.ip = int(ins.A)
			}
		case vm.OpJumpIfTrue:
			if fr.pop().Truthy() {
				fr.ip = int(ins.A)
			}
		case vm.OpCall:
			callee := &fr.m.Fns[ins.A]
			if len(frames) >= maxFrames {
				return vm.Nil(), vm.ErrStackOverflow
			}
			args := fr.popN(int(ins.B))
			frames = append(frames, newNFrame(fr.m, callee, args))
		case vm.OpCallNamed:
			name := fr.m.Strs[ins.A]
			if env.Resolver == nil {
				return vm.Nil(), ntrap(fr.m, fr.f, fr.ip-1, "no resolver for %q", name)
			}
			cm, cf, err := env.Resolver.ResolveFunc(name)
			if err != nil {
				return vm.Nil(), ntrap(fr.m, fr.f, fr.ip-1, "resolve %q: %v", name, err)
			}
			if cf.NParams != int(ins.B) {
				return vm.Nil(), ntrap(fr.m, fr.f, fr.ip-1, "%q wants %d args, got %d", name, cf.NParams, ins.B)
			}
			if len(frames) >= maxFrames {
				return vm.Nil(), vm.ErrStackOverflow
			}
			args := fr.popN(int(ins.B))
			frames = append(frames, newNFrame(cm, cf, args))
		case vm.OpHostCall:
			name := fr.m.Strs[ins.A]
			hf := env.Host[name]
			if hf == nil {
				return vm.Nil(), ntrap(fr.m, fr.f, fr.ip-1, "no host function %q", name)
			}
			args := fr.popN(int(ins.B))
			v, err := hf(args)
			if err != nil {
				return vm.Nil(), err
			}
			fr.push(v)
		case vm.OpReturn:
			v := fr.pop()
			frames = frames[:len(frames)-1]
			if len(frames) == 0 {
				return v, nil
			}
			frames[len(frames)-1].push(v)
		case vm.OpPop:
			fr.pop()
		case vm.OpDup:
			v := fr.pop()
			fr.push(v)
			fr.push(v)
		case vm.OpMakeList:
			elems := fr.popN(int(ins.A))
			fr.push(vm.L(elems...))
		case vm.OpIndex:
			idx, agg := fr.pop(), fr.pop()
			v, err := nindex(fr, agg, idx)
			if err != nil {
				return vm.Nil(), err
			}
			fr.push(v)
		case vm.OpSetIndex:
			val, idx, agg := fr.pop(), fr.pop(), fr.pop()
			if err := nsetIndex(fr, agg, idx, val); err != nil {
				return vm.Nil(), err
			}
			fr.push(vm.Nil())
		case vm.OpMakeMap:
			kvs := fr.popN(2 * int(ins.A))
			mm := make(map[string]vm.Value, ins.A)
			for i := 0; i < len(kvs); i += 2 {
				if kvs[i].Kind != vm.KindStr {
					return vm.Nil(), ntrap(fr.m, fr.f, fr.ip-1, "map key is %s, want str", kvs[i].Kind)
				}
				mm[kvs[i].Str] = kvs[i+1]
			}
			fr.push(vm.M(mm))
		case vm.OpHalt:
			return fr.pop(), nil
		default:
			return vm.Nil(), ntrap(fr.m, fr.f, fr.ip-1, "unknown opcode %d", ins.Op)
		}
	}
}

func newNFrame(m *vm.Module, f *vm.Func, args []vm.Value) *nframe {
	locals := make([]vm.Value, f.NLocals)
	copy(locals, args)
	return &nframe{m: m, f: f, locals: locals, stack: make([]vm.Value, 0, 16)}
}

func (fr *nframe) push(v vm.Value) { fr.stack = append(fr.stack, v) }

func (fr *nframe) pop() vm.Value {
	v := fr.stack[len(fr.stack)-1]
	fr.stack = fr.stack[:len(fr.stack)-1]
	return v
}

// popN pops n values and returns them in push order.
func (fr *nframe) popN(n int) []vm.Value {
	out := make([]vm.Value, n)
	copy(out, fr.stack[len(fr.stack)-n:])
	fr.stack = fr.stack[:len(fr.stack)-n]
	return out
}

func narith(fr *nframe, op vm.Opcode, a, b vm.Value) (vm.Value, error) {
	// String concatenation rides on Add.
	if op == vm.OpAdd && a.Kind == vm.KindStr && b.Kind == vm.KindStr {
		return vm.S(a.Str + b.Str), nil
	}
	if a.Kind != vm.KindInt || b.Kind != vm.KindInt {
		return vm.Nil(), ntrap(fr.m, fr.f, fr.ip-1, "%s of %s and %s", op, a.Kind, b.Kind)
	}
	switch op {
	case vm.OpAdd:
		return vm.I(a.Int + b.Int), nil
	case vm.OpSub:
		return vm.I(a.Int - b.Int), nil
	case vm.OpMul:
		return vm.I(a.Int * b.Int), nil
	case vm.OpDiv:
		if b.Int == 0 {
			return vm.Nil(), ntrap(fr.m, fr.f, fr.ip-1, "division by zero")
		}
		return vm.I(a.Int / b.Int), nil
	case vm.OpMod:
		if b.Int == 0 {
			return vm.Nil(), ntrap(fr.m, fr.f, fr.ip-1, "modulo by zero")
		}
		return vm.I(a.Int % b.Int), nil
	}
	return vm.Nil(), ntrap(fr.m, fr.f, fr.ip-1, "bad arith op")
}

func ncompare(fr *nframe, op vm.Opcode, a, b vm.Value) (vm.Value, error) {
	var c int
	switch {
	case a.Kind == vm.KindInt && b.Kind == vm.KindInt:
		switch {
		case a.Int < b.Int:
			c = -1
		case a.Int > b.Int:
			c = 1
		}
	case a.Kind == vm.KindStr && b.Kind == vm.KindStr:
		switch {
		case a.Str < b.Str:
			c = -1
		case a.Str > b.Str:
			c = 1
		}
	default:
		return vm.Nil(), ntrap(fr.m, fr.f, fr.ip-1, "%s of %s and %s", op, a.Kind, b.Kind)
	}
	switch op {
	case vm.OpLt:
		return vm.B(c < 0), nil
	case vm.OpLe:
		return vm.B(c <= 0), nil
	case vm.OpGt:
		return vm.B(c > 0), nil
	case vm.OpGe:
		return vm.B(c >= 0), nil
	}
	return vm.Nil(), ntrap(fr.m, fr.f, fr.ip-1, "bad compare op")
}

func nindex(fr *nframe, agg, idx vm.Value) (vm.Value, error) {
	switch agg.Kind {
	case vm.KindList:
		if idx.Kind != vm.KindInt {
			return vm.Nil(), ntrap(fr.m, fr.f, fr.ip-1, "list index is %s", idx.Kind)
		}
		if idx.Int < 0 || idx.Int >= int64(len(agg.List)) {
			return vm.Nil(), ntrap(fr.m, fr.f, fr.ip-1, "index %d out of range (len %d)", idx.Int, len(agg.List))
		}
		return agg.List[idx.Int], nil
	case vm.KindMap:
		if idx.Kind != vm.KindStr {
			return vm.Nil(), ntrap(fr.m, fr.f, fr.ip-1, "map key is %s", idx.Kind)
		}
		return agg.Map[idx.Str], nil
	case vm.KindStr:
		if idx.Kind != vm.KindInt {
			return vm.Nil(), ntrap(fr.m, fr.f, fr.ip-1, "string index is %s", idx.Kind)
		}
		if idx.Int < 0 || idx.Int >= int64(len(agg.Str)) {
			return vm.Nil(), ntrap(fr.m, fr.f, fr.ip-1, "index %d out of range (len %d)", idx.Int, len(agg.Str))
		}
		return vm.S(string(agg.Str[idx.Int])), nil
	default:
		return vm.Nil(), ntrap(fr.m, fr.f, fr.ip-1, "cannot index %s", agg.Kind)
	}
}

func nsetIndex(fr *nframe, agg, idx, val vm.Value) error {
	switch agg.Kind {
	case vm.KindList:
		if idx.Kind != vm.KindInt {
			return ntrap(fr.m, fr.f, fr.ip-1, "list index is %s", idx.Kind)
		}
		if idx.Int < 0 || idx.Int >= int64(len(agg.List)) {
			return ntrap(fr.m, fr.f, fr.ip-1, "index %d out of range (len %d)", idx.Int, len(agg.List))
		}
		agg.List[idx.Int] = val
		return nil
	case vm.KindMap:
		if idx.Kind != vm.KindStr {
			return ntrap(fr.m, fr.f, fr.ip-1, "map key is %s", idx.Kind)
		}
		agg.Map[idx.Str] = val
		return nil
	default:
		return ntrap(fr.m, fr.f, fr.ip-1, "cannot set-index %s", agg.Kind)
	}
}
