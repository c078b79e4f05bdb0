// Package cowsnapshot machine-checks the copy-on-write snapshot
// discipline from the lock-free access-path work (docs/PROTOCOLS.md
// §8.1): a value loaded from an atomic.Pointer is a published,
// immutable generation shared with every concurrent reader. Mutating
// it — assigning to its fields, its map entries, its slice elements,
// or deleting from its maps — is a data race that -race only catches
// if a reader happens to overlap. The analyzer flags any write whose
// destination is reached from an atomic.Pointer[T].Load() result in
// the copy-on-write packages (internal/names, internal/policy,
// internal/registry, internal/resource), unless the value was first
// deep-copied.
//
// The taint rules are intra-procedural and deliberately simple:
// a Load() call is tainted; a variable assigned a tainted expression
// is tainted; field selection, indexing, dereference and range over a
// tainted value propagate taint (range only when the element is
// reference-shaped — a struct copy is a genuine copy); a call result
// is fresh (clone helpers therefore launder taint naturally, which is
// the sanctioned idiom: registry.clone, resource.copyMethods, the
// fresh-ruleSet construction in policy.mutate). One refinement keeps
// accessor wrappers honest: an intra-package function that *returns* a
// Load() result (like registry.load) taints its call results too.
// Functions whose doc comment carries //cow:clone are exempt wholesale
// — that marker names the package's documented deep-copy helper.
package cowsnapshot

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// scopes are the copy-on-write packages the discipline governs.
var scopes = []string{
	"repro/internal/names",
	"repro/internal/policy",
	"repro/internal/registry",
	"repro/internal/resource",
}

// Analyzer flags mutations of values reached from atomic.Pointer.Load
// in the copy-on-write packages.
var Analyzer = &analysis.Analyzer{
	Name: "cowsnapshot",
	Doc: "values loaded from an atomic.Pointer are immutable published snapshots " +
		"(docs/PROTOCOLS.md §8.1); deep-copy via the package's clone helper before mutating",
	Run: run,
}

func run(pass *analysis.Pass) error {
	inScope := false
	for _, s := range scopes {
		if pass.Pkg.Path() == s || strings.HasPrefix(pass.Pkg.Path(), s+"/") {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}

	sources := loadReturners(pass)

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isCloneHelper(fd) {
				continue
			}
			checkFunc(pass, sources, fd)
		}
	}
	return nil
}

// isCloneHelper reports whether the function is annotated //cow:clone.
func isCloneHelper(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == "cow:clone" {
			return true
		}
	}
	return false
}

// isPointerLoad reports whether the call is (atomic.Pointer[T]).Load.
func isPointerLoad(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Load" {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	return analysis.IsNamedType(s.Recv(), "sync/atomic", "Pointer")
}

// loadReturners finds intra-package functions that return a Load()
// result (directly or through a local), so their call sites taint too.
func loadReturners(pass *analysis.Pass) map[*types.Func]bool {
	out := make(map[*types.Func]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isCloneHelper(fd) {
				continue
			}
			// Locals assigned straight from a Load call.
			loaded := make(map[types.Object]bool)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != len(as.Rhs) {
					return true
				}
				for i, rhs := range as.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || !isPointerLoad(pass.TypesInfo, call) {
						continue
					}
					if id, ok := as.Lhs[i].(*ast.Ident); ok {
						if obj := pass.TypesInfo.Defs[id]; obj != nil {
							loaded[obj] = true
						} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
							loaded[obj] = true
						}
					}
				}
				return true
			})
			returnsLoad := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				ret, ok := n.(*ast.ReturnStmt)
				if !ok {
					return true
				}
				for _, res := range ret.Results {
					switch e := ast.Unparen(res).(type) {
					case *ast.CallExpr:
						if isPointerLoad(pass.TypesInfo, e) {
							returnsLoad = true
						}
					case *ast.Ident:
						if loaded[pass.TypesInfo.Uses[e]] {
							returnsLoad = true
						}
					}
				}
				return true
			})
			if returnsLoad {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					out[fn] = true
				}
			}
		}
	}
	return out
}

// checker tracks taint through one function body.
type checker struct {
	pass    *analysis.Pass
	sources map[*types.Func]bool
	tainted map[types.Object]bool
}

func checkFunc(pass *analysis.Pass, sources map[*types.Func]bool, fd *ast.FuncDecl) {
	c := &checker{pass: pass, sources: sources, tainted: make(map[types.Object]bool)}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			c.assign(n)
		case *ast.IncDecStmt:
			c.checkWrite(n.X, n.Pos())
		case *ast.RangeStmt:
			c.rangeStmt(n)
		case *ast.CallExpr:
			c.builtinMutation(n)
		}
		return true
	})
}

// assign propagates taint across an assignment and flags writes whose
// destination is reached from a snapshot.
func (c *checker) assign(as *ast.AssignStmt) {
	// Flag tainted destinations first (a write through a selector or
	// index rooted in a snapshot).
	for _, lhs := range as.Lhs {
		c.checkWrite(lhs, lhs.Pos())
	}
	// Then propagate: x := <tainted> taints x; x := <fresh> clears it.
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := c.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = c.pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		c.tainted[obj] = c.taintedExpr(as.Rhs[i])
	}
}

// rangeStmt taints reference-shaped loop variables drawn from a
// tainted container: the *pointers* in a loaded map still point into
// the shared snapshot even though the map header was copied.
func (c *checker) rangeStmt(r *ast.RangeStmt) {
	if !c.taintedExpr(r.X) || r.Value == nil {
		return
	}
	id, ok := ast.Unparen(r.Value).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := c.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Uses[id]
	}
	if obj == nil || !referenceShaped(obj.Type()) {
		return
	}
	c.tainted[obj] = true
}

// builtinMutation flags delete(m, k) and clear(m) on tainted maps.
func (c *checker) builtinMutation(call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || (id.Name != "delete" && id.Name != "clear") || len(call.Args) == 0 {
		return
	}
	if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	if c.taintedExpr(call.Args[0]) {
		c.report(call.Pos(), id.Name)
	}
}

// checkWrite reports a write whose destination expression is reached
// from a snapshot: a selector, index or dereference rooted in taint.
func (c *checker) checkWrite(lhs ast.Expr, pos token.Pos) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if c.taintedExpr(e.X) {
			c.report(pos, "field write")
		}
	case *ast.IndexExpr:
		if c.taintedExpr(e.X) {
			c.report(pos, "element write")
		}
	case *ast.StarExpr:
		if c.taintedExpr(e.X) {
			c.report(pos, "write through pointer")
		}
	}
}

func (c *checker) report(pos token.Pos, what string) {
	c.pass.Reportf(pos,
		"%s mutates a copy-on-write snapshot reached from atomic.Pointer.Load; "+
			"deep-copy via the package's clone helper first (docs/PROTOCOLS.md §8.1)", what)
}

// taintedExpr reports whether the expression's value is reached from a
// loaded snapshot.
func (c *checker) taintedExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = c.pass.TypesInfo.Defs[e]
		}
		return obj != nil && c.tainted[obj]
	case *ast.SelectorExpr:
		return c.taintedExpr(e.X)
	case *ast.IndexExpr:
		return c.taintedExpr(e.X)
	case *ast.StarExpr:
		return c.taintedExpr(e.X)
	case *ast.UnaryExpr:
		return c.taintedExpr(e.X)
	case *ast.CallExpr:
		if isPointerLoad(c.pass.TypesInfo, e) {
			return true
		}
		if fn := analysis.CalleeFunc(c.pass.TypesInfo, e); fn != nil && c.sources[fn] {
			return true
		}
		return false
	default:
		return false
	}
}

// referenceShaped reports whether mutating through a value of this
// type reaches shared memory.
func referenceShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Interface:
		return true
	}
	return false
}
