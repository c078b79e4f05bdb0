package vm

import "fmt"

// Opcode is a VM instruction opcode.
type Opcode uint8

// The instruction set. A and B are integer operands whose meaning
// depends on the opcode (pool index, local slot, jump target, argument
// count).
const (
	OpNop Opcode = iota
	// Constants.
	OpPushInt   // push Ints[A]
	OpPushStr   // push Strs[A]
	OpPushTrue  // push true
	OpPushFalse // push false
	OpPushNil   // push nil
	// Locals and globals. Globals are the agent's mutable state and
	// are addressed by name (Strs[A]) so they survive recompilation
	// and migration.
	OpLoadLocal   // push locals[A]
	OpStoreLocal  // locals[A] = pop
	OpLoadGlobal  // push globals[Strs[A]] (nil if unset)
	OpStoreGlobal // globals[Strs[A]] = pop
	// Arithmetic (ints).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg
	// Comparison. Eq/Ne are structural; Lt..Ge require two ints or
	// two strings.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpNot
	// Control flow. Jump targets are absolute instruction indices.
	OpJump        // ip = A
	OpJumpIfFalse // if !pop.Truthy() { ip = A }
	OpJumpIfTrue  // if pop.Truthy() { ip = A }
	// Calls. OpCall targets function index A in the current module
	// with B arguments. OpCallNamed resolves Strs[A] ("module:func"
	// or "func") through the namespace resolver — this is the hook
	// where class-loader-style shadowing applies. OpHostCall invokes
	// the host function named Strs[A].
	OpCall
	OpCallNamed
	OpHostCall
	OpReturn // return pop
	// Stack and aggregates.
	OpPop
	OpDup
	OpMakeList // pop A elements (in push order), push list
	OpIndex    // pop idx, pop agg, push agg[idx]
	OpSetIndex // pop val, pop idx, pop agg, store (agg mutated), push nil
	OpMakeMap  // pop 2A values (k1,v1,...), keys must be str, push map
	OpHalt     // stop with pop as the routine's value

	// Fused superinstructions (vm.Prepare's peephole pass, fuse.go).
	// Each stands for a short straight-line sequence of the canonical
	// opcodes above and is PC-preserving: the fused opcode replaces the
	// *first* instruction of the sequence and the remaining "shadow"
	// slots keep their original instructions, so jump targets, position
	// tables and manifest call sites are unchanged. Width() reports how
	// many slots a fused head covers; execution and fuel charging both
	// advance by that width. Fused opcodes are an execution-only form:
	// they appear solely in the prepared copies built by vm.Prepare and
	// must never be serialized into a transfer envelope (canonical wire
	// bytecode is enforced by agent.Encode/Decode and the fusedwire
	// analyzer).
	OpLLIAdd     // push locals[A] + Ints[B]    (loadl A; pushint B; add)
	OpLLISub     // push locals[A] - Ints[B]    (loadl A; pushint B; sub)
	OpLLILt      // push locals[A] < Ints[B]    (loadl A; pushint B; lt)
	OpLLILe      // push locals[A] <= Ints[B]   (loadl A; pushint B; le)
	OpLLLL       // push locals[A]; push locals[B] (loadl A; loadl B)
	OpEqJF       // pop b, pop a; if !(a == b) { ip = A } (eq; jz A)
	OpNeJF       // pop b, pop a; if !(a != b) { ip = A } (ne; jz A)
	OpLtJF       // pop b, pop a; if !(a < b)  { ip = A } (lt; jz A)
	OpLeJF       // pop b, pop a; if !(a <= b) { ip = A } (le; jz A)
	OpGtJF       // pop b, pop a; if !(a > b)  { ip = A } (gt; jz A)
	OpGeJF       // pop b, pop a; if !(a >= b) { ip = A } (ge; jz A)
	OpPushIntRet // return Ints[A]          (pushint A; ret) — terminal

	opMax // sentinel; keep last
)

// opWidth maps each opcode to the number of instruction slots it
// covers: 1 for canonical opcodes, the fused-sequence length for
// superinstructions. Indexed hot by the interpreter.
var opWidth = [opMax]uint8{
	OpLLIAdd: 3, OpLLISub: 3, OpLLILt: 3, OpLLILe: 3,
	OpLLLL: 2, OpEqJF: 2, OpNeJF: 2, OpLtJF: 2, OpLeJF: 2,
	OpGtJF: 2, OpGeJF: 2, OpPushIntRet: 2,
}

func init() {
	for op := range opWidth {
		if opWidth[op] == 0 {
			opWidth[op] = 1
		}
	}
}

// Width reports how many instruction slots the opcode covers: 1 for
// every canonical opcode, 2 or 3 for fused superinstructions (whose
// trailing shadow slots hold the original instructions and are skipped
// by execution). Unknown opcodes report 1.
func (o Opcode) Width() int {
	if o < opMax {
		return int(opWidth[o])
	}
	return 1
}

// Fused reports whether the opcode is an execution-only fused
// superinstruction (never valid in wire-format modules).
func (o Opcode) Fused() bool { return o.Width() > 1 }

var opNames = [...]string{
	OpNop: "nop", OpPushInt: "pushint", OpPushStr: "pushstr",
	OpPushTrue: "pushtrue", OpPushFalse: "pushfalse", OpPushNil: "pushnil",
	OpLoadLocal: "loadl", OpStoreLocal: "storel",
	OpLoadGlobal: "loadg", OpStoreGlobal: "storeg",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod", OpNeg: "neg",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge", OpNot: "not",
	OpJump: "jmp", OpJumpIfFalse: "jz", OpJumpIfTrue: "jnz",
	OpCall: "call", OpCallNamed: "calln", OpHostCall: "hostcall",
	OpReturn: "ret", OpPop: "pop", OpDup: "dup",
	OpMakeList: "mklist", OpIndex: "index", OpSetIndex: "setindex",
	OpMakeMap: "mkmap", OpHalt: "halt",
	OpLLIAdd: "lli_add", OpLLISub: "lli_sub", OpLLILt: "lli_lt", OpLLILe: "lli_le",
	OpLLLL: "ll_ll", OpEqJF: "eq_jz", OpNeJF: "ne_jz", OpLtJF: "lt_jz",
	OpLeJF: "le_jz", OpGtJF: "gt_jz", OpGeJF: "ge_jz", OpPushIntRet: "pushint_ret",
}

func (o Opcode) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one instruction. Fixed-width operands keep decoding trivial
// and the verifier simple; compactness is not a goal of this substrate.
type Instr struct {
	Op   Opcode
	A, B int32
}

func (i Instr) String() string {
	switch i.Op {
	case OpNop, OpPushTrue, OpPushFalse, OpPushNil, OpAdd, OpSub, OpMul,
		OpDiv, OpMod, OpNeg, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpNot,
		OpReturn, OpPop, OpDup, OpIndex, OpSetIndex, OpHalt:
		return i.Op.String()
	case OpCall, OpCallNamed, OpHostCall,
		OpLLIAdd, OpLLISub, OpLLILt, OpLLILe, OpLLLL:
		return fmt.Sprintf("%s %d %d", i.Op, i.A, i.B)
	default:
		return fmt.Sprintf("%s %d", i.Op, i.A)
	}
}

// Pos is the source position an instruction was compiled from. Line
// and Col are 1-based; zero values mean "unknown".
type Pos struct {
	Line, Col int32
}

// Func is one function of a module.
type Func struct {
	Name string
	// NParams is the declared parameter count; parameters occupy the
	// first NParams local slots.
	NParams int
	// NLocals is the total local slot count (params included).
	NLocals int
	Code    []Instr
	// Pos maps each instruction to its source position. Optional: only
	// meaningful when len(Pos) == len(Code); hand-built and deserialized
	// modules may omit it entirely.
	Pos []Pos
	// LocalNames names the local slots in order (parameters first).
	// Optional debug metadata like Pos; may be shorter than NLocals.
	LocalNames []string

	// rt is the per-function runtime table built by Prepare (fuse.go):
	// inline-cache slots and the verified operand-stack bound. nil on
	// canonical (wire-form) functions; the agent codec never writes it
	// — serialization strips prepared state by construction.
	rt *funcRT
}

// PosAt returns the source position of instruction pc, or a zero Pos
// when the function carries no position table.
func (f *Func) PosAt(pc int) Pos {
	if len(f.Pos) == len(f.Code) && pc >= 0 && pc < len(f.Pos) {
		return f.Pos[pc]
	}
	return Pos{}
}

// LocalName names slot i, falling back to a numeric placeholder when
// the name table is absent.
func (f *Func) LocalName(i int) string {
	if i >= 0 && i < len(f.LocalNames) {
		return f.LocalNames[i]
	}
	return fmt.Sprintf("local%d", i)
}

// Module is a verifiable, serializable unit of agent code: the analogue
// of a Java class file. Agents carry a bundle of modules.
type Module struct {
	Name string
	Ints []int64
	Strs []string
	Fns  []Func
}

// Fn finds a function by name.
func (m *Module) Fn(name string) (int, *Func) {
	for i := range m.Fns {
		if m.Fns[i].Name == name {
			return i, &m.Fns[i]
		}
	}
	return -1, nil
}

// InternInt returns the pool index of v, adding it if needed. Used by
// the compiler and by tests that build modules directly.
func (m *Module) InternInt(v int64) int32 {
	for i, x := range m.Ints {
		if x == v {
			return int32(i)
		}
	}
	m.Ints = append(m.Ints, v)
	return int32(len(m.Ints) - 1)
}

// InternStr returns the pool index of s, adding it if needed.
func (m *Module) InternStr(s string) int32 {
	for i, x := range m.Strs {
		if x == s {
			return int32(i)
		}
	}
	m.Strs = append(m.Strs, s)
	return int32(len(m.Strs) - 1)
}

// Disassemble renders the module as text, for the aslc tool and debug
// output.
func (m *Module) Disassemble() string {
	out := fmt.Sprintf("module %s\n", m.Name)
	for fi := range m.Fns {
		f := &m.Fns[fi]
		out += fmt.Sprintf("func %s params=%d locals=%d\n", f.Name, f.NParams, f.NLocals)
		for pc, ins := range f.Code {
			note := ""
			switch ins.Op {
			case OpPushInt:
				if int(ins.A) < len(m.Ints) {
					note = fmt.Sprintf("  ; %d", m.Ints[ins.A])
				}
			case OpPushStr, OpLoadGlobal, OpStoreGlobal, OpCallNamed, OpHostCall:
				if int(ins.A) < len(m.Strs) {
					note = fmt.Sprintf("  ; %q", m.Strs[ins.A])
				}
			case OpCall:
				if int(ins.A) < len(m.Fns) {
					note = fmt.Sprintf("  ; %s", m.Fns[ins.A].Name)
				}
			case OpLLIAdd, OpLLISub, OpLLILt, OpLLILe:
				if int(ins.B) < len(m.Ints) {
					note = fmt.Sprintf("  ; %s, %d", f.LocalName(int(ins.A)), m.Ints[ins.B])
				}
			case OpPushIntRet:
				if int(ins.A) < len(m.Ints) {
					note = fmt.Sprintf("  ; %d", m.Ints[ins.A])
				}
			}
			out += fmt.Sprintf("  %4d  %s%s\n", pc, ins, note)
		}
	}
	return out
}
