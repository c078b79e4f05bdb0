package vm_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/asl"
	"repro/internal/baseline"
	"repro/internal/vm"
)

// nestedList is a list nested depth levels deep, innermost empty.
func nestedList(depth int) vm.Value {
	v := vm.L()
	for i := 1; i < depth; i++ {
		v = vm.L(v)
	}
	return v
}

// selfList is a list that contains itself, as `l[0] = l` builds it.
func selfList() vm.Value {
	l := vm.L(vm.I(0))
	l.List[0] = l
	return l
}

func TestValueWalksStopAtMaxDepth(t *testing.T) {
	if err := nestedList(vm.MaxValueDepth).CheckDepth(); err != nil {
		t.Fatalf("depth %d: %v", vm.MaxValueDepth, err)
	}
	if err := nestedList(vm.MaxValueDepth + 1).CheckDepth(); !errors.Is(err, vm.ErrValueTooDeep) {
		t.Fatalf("depth %d: %v, want ErrValueTooDeep", vm.MaxValueDepth+1, err)
	}
	deep := nestedList(vm.MaxValueDepth)
	if !deep.Equal(deep.Clone()) || deep.String() != deep.Clone().String() {
		t.Fatal("a value at the cap does not clone, compare and render whole")
	}
	l := selfList()
	if err := l.CheckDepth(); !errors.Is(err, vm.ErrValueTooDeep) {
		t.Fatalf("self-containing list: %v, want ErrValueTooDeep", err)
	}
	if l.Equal(selfList()) {
		t.Fatal("values past the cap must compare unequal")
	}
	if s := l.String(); !strings.Contains(s, "...") {
		t.Fatalf("String = %q, want the cut marker", s)
	}
	// The clone is cut to nil below the cap: lists at depths 1 to
	// MaxValueDepth, then nil.
	lists := 0
	for c := l.Clone(); c.Kind == vm.KindList; c = c.List[0] {
		lists++
	}
	if lists != vm.MaxValueDepth {
		t.Fatalf("Clone of a self-containing list is %d lists deep, want %d", lists, vm.MaxValueDepth)
	}
}

// TestDeepValueTrapParity runs each agent-reachable walk of a
// self-containing list through the naive interpreter and through the
// fast one on canonical and prepared (fused) code: all three must trap
// with ErrValueTooDeep, with the same fuel used.
func TestDeepValueTrapParity(t *testing.T) {
	for _, body := range []string{
		"return l == m",
		"return l != m",
		"if l == m { return 1 } return 2",
		"if l != m { return 1 } return 2",
		"return str(l)",
		`return join([l], ",")`,
		"return contains([l], 1)",
		"return contains([1], l)",
	} {
		m, err := asl.Compile("module m\nfunc f() {\n  var l = [0]\n  l[0] = l\n  var m = [0]\n  m[0] = m\n  " + body + "\n}")
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		naive := runNaive(m, 10_000, "f")
		if naive.class != "trap" {
			t.Fatalf("%s: naive class %q, want trap", body, naive.class)
		}
		compareLegs(t, body+" (canonical)", naive, runFast(m, 10_000, "f"))
		compareLegs(t, body+" (prepared)", naive, runFast(vm.Prepare(m), 10_000, "f"))
		for _, code := range []*vm.Module{m, vm.Prepare(m)} {
			if _, err := vm.Run(diffEnv(code, 10_000), code, "f"); !errors.Is(err, vm.ErrValueTooDeep) {
				t.Fatalf("%s: fast = %v, want ErrValueTooDeep", body, err)
			}
		}
		if _, err := (baseline.NaiveInterp{}).Run(diffEnv(m, 10_000), m, "f"); !errors.Is(err, vm.ErrValueTooDeep) {
			t.Fatalf("%s: naive = %v, want ErrValueTooDeep", body, err)
		}
	}
}
