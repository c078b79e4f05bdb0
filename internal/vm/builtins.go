package vm

import (
	"fmt"
	"sort"
	"strings"
)

// InstallBuiltins adds the pure builtins every environment gets: len,
// append, str, contains, keys. They have no side effects and therefore
// need no security mediation.
func InstallBuiltins(env *Env) {
	env.Host["len"] = func(args []Value) (Value, error) {
		if len(args) != 1 {
			return Nil(), fmt.Errorf("%w: len wants 1 arg", ErrTrap)
		}
		switch a := args[0]; a.Kind {
		case KindStr:
			return I(int64(len(a.Str))), nil
		case KindList:
			return I(int64(len(a.List))), nil
		case KindMap:
			return I(int64(len(a.Map))), nil
		default:
			return Nil(), fmt.Errorf("%w: len of %s", ErrTrap, a.Kind)
		}
	}
	env.Host["append"] = func(args []Value) (Value, error) {
		if len(args) < 1 || args[0].Kind != KindList {
			return Nil(), fmt.Errorf("%w: append wants (list, items...)", ErrTrap)
		}
		out := make([]Value, 0, len(args[0].List)+len(args)-1)
		out = append(out, args[0].List...)
		out = append(out, args[1:]...)
		return L(out...), nil
	}
	env.Host["str"] = func(args []Value) (Value, error) {
		if len(args) != 1 {
			return Nil(), fmt.Errorf("%w: str wants 1 arg", ErrTrap)
		}
		if err := args[0].CheckDepth(); err != nil {
			return Nil(), fmt.Errorf("%w: str: %w", ErrTrap, err)
		}
		return S(args[0].Text()), nil
	}
	env.Host["contains"] = func(args []Value) (Value, error) {
		if len(args) != 2 {
			return Nil(), fmt.Errorf("%w: contains wants 2 args", ErrTrap)
		}
		switch a := args[0]; a.Kind {
		case KindList:
			if a.CheckDepth() != nil || args[1].CheckDepth() != nil {
				return Nil(), fmt.Errorf("%w: contains: %w", ErrTrap, ErrValueTooDeep)
			}
			for _, e := range a.List {
				if e.Equal(args[1]) {
					return B(true), nil
				}
			}
			return B(false), nil
		case KindMap:
			if args[1].Kind != KindStr {
				return Nil(), fmt.Errorf("%w: contains on map wants str key", ErrTrap)
			}
			_, ok := a.Map[args[1].Str]
			return B(ok), nil
		default:
			return Nil(), fmt.Errorf("%w: contains on %s", ErrTrap, a.Kind)
		}
	}
	env.Host["split"] = func(args []Value) (Value, error) {
		if len(args) != 2 || args[0].Kind != KindStr || args[1].Kind != KindStr {
			return Nil(), fmt.Errorf("%w: split wants (str, sep)", ErrTrap)
		}
		if args[1].Str == "" {
			return Nil(), fmt.Errorf("%w: split with empty separator", ErrTrap)
		}
		parts := strings.Split(args[0].Str, args[1].Str)
		out := make([]Value, len(parts))
		for i, p := range parts {
			out[i] = S(p)
		}
		return L(out...), nil
	}
	env.Host["join"] = func(args []Value) (Value, error) {
		if len(args) != 2 || args[0].Kind != KindList || args[1].Kind != KindStr {
			return Nil(), fmt.Errorf("%w: join wants (list, sep)", ErrTrap)
		}
		if err := args[0].CheckDepth(); err != nil {
			return Nil(), fmt.Errorf("%w: join: %w", ErrTrap, err)
		}
		parts := make([]string, len(args[0].List))
		for i, e := range args[0].List {
			parts[i] = e.Text()
		}
		return S(strings.Join(parts, args[1].Str)), nil
	}
	env.Host["substr"] = func(args []Value) (Value, error) {
		if len(args) != 3 || args[0].Kind != KindStr ||
			args[1].Kind != KindInt || args[2].Kind != KindInt {
			return Nil(), fmt.Errorf("%w: substr wants (str, start, end)", ErrTrap)
		}
		s, lo, hi := args[0].Str, args[1].Int, args[2].Int
		if lo < 0 || hi < lo || hi > int64(len(s)) {
			return Nil(), fmt.Errorf("%w: substr bounds [%d:%d] on len %d", ErrTrap, lo, hi, len(s))
		}
		return S(s[lo:hi]), nil
	}
	env.Host["find"] = func(args []Value) (Value, error) {
		if len(args) != 2 || args[0].Kind != KindStr || args[1].Kind != KindStr {
			return Nil(), fmt.Errorf("%w: find wants (str, substr)", ErrTrap)
		}
		return I(int64(strings.Index(args[0].Str, args[1].Str))), nil
	}
	env.Host["keys"] = func(args []Value) (Value, error) {
		if len(args) != 1 || args[0].Kind != KindMap {
			return Nil(), fmt.Errorf("%w: keys wants a map", ErrTrap)
		}
		ks := make([]string, 0, len(args[0].Map))
		for k := range args[0].Map {
			ks = append(ks, k)
		}
		// Deterministic order keeps agent programs reproducible.
		sort.Strings(ks)
		out := make([]Value, len(ks))
		for i, k := range ks {
			out[i] = S(k)
		}
		return L(out...), nil
	}
}
