// Package vm implements the agent virtual machine: a verified stack
// machine that executes mobile agent code. It is this repository's
// substitute for the Java virtual machine the paper builds on — it
// provides the three properties the paper's security design needs from
// its execution substrate:
//
//  1. code mobility: modules (code) and globals (state) are plain data
//     that serialize and travel with an agent between servers;
//  2. verification: a received module is statically checked (opcode
//     validity, jump targets, stack discipline, pool bounds) before it
//     may run, like Java's byte-code verifier;
//  3. complete mediation: agent code can affect the world only through
//     host calls installed by the server, every one of which runs under
//     the server's security manager, like Java's security-sensitive
//     library classes.
//
// Execution is metered by instruction count, providing the
// denial-of-service protection the paper lists among its requirements
// ("inordinate consumption of a host's resources").
package vm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic types of VM values.
type Kind uint8

// Value kinds. Handles reference host-side objects (e.g. resource
// proxies) through a per-domain table; they are meaningless outside the
// server that issued them and are invalidated on migration.
const (
	KindNil Kind = iota
	KindBool
	KindInt
	KindStr
	KindList
	KindMap
	KindHandle
)

func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindStr:
		return "str"
	case KindList:
		return "list"
	case KindMap:
		return "map"
	case KindHandle:
		return "handle"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a VM value. Agent state migrates through the agent codec
// (internal/agent), which writes only the field Kind selects.
type Value struct {
	Kind   Kind
	Bool   bool
	Int    int64
	Str    string
	List   []Value
	Map    map[string]Value
	Handle uint64
}

// Constructors.
func Nil() Value          { return Value{Kind: KindNil} }
func B(b bool) Value      { return Value{Kind: KindBool, Bool: b} }
func I(i int64) Value     { return Value{Kind: KindInt, Int: i} }
func S(s string) Value    { return Value{Kind: KindStr, Str: s} }
func L(vs ...Value) Value { return Value{Kind: KindList, List: vs} }
func M(m map[string]Value) Value {
	if m == nil {
		m = make(map[string]Value)
	}
	return Value{Kind: KindMap, Map: m}
}
func H(h uint64) Value { return Value{Kind: KindHandle, Handle: h} }

// Truthy implements the language's boolean coercion: nil and false are
// false; everything else (including 0 and "") is true, which keeps
// conditions explicit.
func (v Value) Truthy() bool {
	switch v.Kind {
	case KindNil:
		return false
	case KindBool:
		return v.Bool
	default:
		return true
	}
}

// Equal is deep structural equality.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindNil:
		return true
	case KindBool:
		return v.Bool == o.Bool
	case KindInt:
		return v.Int == o.Int
	case KindStr:
		return v.Str == o.Str
	case KindHandle:
		return v.Handle == o.Handle
	case KindList:
		if len(v.List) != len(o.List) {
			return false
		}
		for i := range v.List {
			if !v.List[i].Equal(o.List[i]) {
				return false
			}
		}
		return true
	case KindMap:
		if len(v.Map) != len(o.Map) {
			return false
		}
		for k, a := range v.Map {
			b, ok := o.Map[k]
			if !ok || !a.Equal(b) {
				return false
			}
		}
		return true
	}
	return false
}

// String renders the value in source-like syntax.
func (v Value) String() string {
	switch v.Kind {
	case KindNil:
		return "nil"
	case KindBool:
		return strconv.FormatBool(v.Bool)
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindStr:
		return strconv.Quote(v.Str)
	case KindHandle:
		return fmt.Sprintf("handle#%d", v.Handle)
	case KindList:
		parts := make([]string, len(v.List))
		for i, e := range v.List {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case KindMap:
		keys := make([]string, 0, len(v.Map))
		for k := range v.Map {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = strconv.Quote(k) + ": " + v.Map[k].String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	default:
		return fmt.Sprintf("<%s>", v.Kind)
	}
}

// Text returns the unquoted string for str values and String() for the
// rest — the coercion used by the `str` builtin and log output.
func (v Value) Text() string {
	if v.Kind == KindStr {
		return v.Str
	}
	return v.String()
}

// Clone makes a deep copy, used when state must not be shared across
// protection domains.
func (v Value) Clone() Value {
	switch v.Kind {
	case KindList:
		cp := make([]Value, len(v.List))
		for i, e := range v.List {
			cp[i] = e.Clone()
		}
		return Value{Kind: KindList, List: cp}
	case KindMap:
		cp := make(map[string]Value, len(v.Map))
		for k, e := range v.Map {
			cp[k] = e.Clone()
		}
		return Value{Kind: KindMap, Map: cp}
	default:
		return v
	}
}
