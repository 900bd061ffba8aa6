// Package hotpathalloc checks that functions annotated //isi:hotpath
// stay allocation-free: no make/new/append, no allocating composite
// literals, no closures, no interface boxing, no fmt, no run-time
// string concatenation. Calls from a hot-path function into an
// unannotated same-module function are checked one level deep — the
// callee's body is scanned with the same rules and any violation is
// reported at the call site, so a drain loop cannot launder an
// allocation through a helper. Individual sites (cap-guarded cold
// growth, setup phases) opt out with //isi:allow-alloc(reason).
package hotpathalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/isivet"
)

// Analyzer is the hot-path allocation checker.
var Analyzer = &isivet.Analyzer{
	Name:  "hotpathalloc",
	Doc:   "//isi:hotpath functions must not allocate (make/append/closures/boxing/fmt), checked one call level deep",
	Allow: "alloc",
	Run:   run,
}

func run(pass *isivet.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isivet.IsHotpath(fd) {
				continue
			}
			// Direct violations, reported where they stand.
			for _, v := range scanBody(pass.Package, fd.Body) {
				pass.Reportf(v.pos, "%s", v.msg)
			}
			// One level deep: statically-resolved same-module callees.
			checkCallees(pass, fd.Body)
		}
	}
	return nil
}

// violation is one allocating construct found in a body.
type violation struct {
	pos token.Pos
	msg string
}

// scanBody walks one function body and collects every allocating
// construct, skipping sites covered by the body's own
// //isi:allow-alloc directives (pkg is the package the body lives in,
// which differs from the pass package during transitive callee scans —
// a callee's annotations are honored from every caller).
func scanBody(pkg *isivet.Package, body *ast.BlockStmt) []violation {
	var out []violation
	report := func(pos token.Pos, format string, args ...any) {
		if pkg.AllowedAt("alloc", pos) {
			return
		}
		out = append(out, violation{pos, fmt.Sprintf(format, args...)})
	}
	info := pkg.Info

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "closure allocates (func literal may capture variables)")
			return false // its body is the closure's problem, one finding suffices

		case *ast.CompositeLit:
			if t := pkg.Info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					report(n.Pos(), "slice literal allocates")
				case *types.Map:
					report(n.Pos(), "map literal allocates")
				}
			}

		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal escapes to the heap")
				}
			}

		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := info.Types[ast.Expr(n)]; ok && tv.Value == nil {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						report(n.Pos(), "non-constant string concatenation allocates")
					}
				}
			}

		case *ast.CallExpr:
			checkCall(pkg, n, report)
		}
		return true
	})
	return out
}

// checkCall flags allocating builtins, fmt calls, interface-boxing
// conversions, and concrete arguments passed to interface parameters.
func checkCall(pkg *isivet.Package, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	info := pkg.Info
	switch {
	case isivet.IsBuiltin(info, call, "make"):
		report(call.Pos(), "make allocates")
		return
	case isivet.IsBuiltin(info, call, "new"):
		report(call.Pos(), "new allocates")
		return
	case isivet.IsBuiltin(info, call, "append"):
		report(call.Pos(), "append may grow its backing array")
		return
	}

	fun := ast.Unparen(call.Fun)

	// Conversion to an interface type boxes its operand. A type parameter
	// is not one, though types.IsInterface says so of its constraint:
	// converting *F to a P constrained to *F is a pointer conversion.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		_, typeParam := tv.Type.(*types.TypeParam)
		if !typeParam && types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if at := info.TypeOf(call.Args[0]); at != nil && concrete(at) {
				report(call.Pos(), "conversion boxes %s into interface %s", at, tv.Type)
			}
		}
		return
	}

	// Calls into package fmt always format through interfaces.
	if fn := isivet.Callee(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		report(call.Pos(), "fmt.%s allocates (formats through interfaces)", fn.Name())
		return
	}

	// Concrete arguments to interface-typed parameters box.
	sig, ok := info.TypeOf(fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice, no boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		if at := info.TypeOf(arg); at != nil && concrete(at) {
			report(arg.Pos(), "argument boxes %s into interface %s", at, pt)
		}
	}
}

// concrete reports whether a value of type t would be boxed when
// assigned to an interface: non-interface, non-type-parameter, and not
// the untyped nil.
func concrete(t types.Type) bool {
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	if _, ok := t.(*types.TypeParam); ok {
		return false
	}
	return !types.IsInterface(t)
}

// checkCallees scans the body of every statically-resolved same-module
// callee that is not itself annotated //isi:hotpath, and reports the
// callee's violations at the call site. Interface dispatch and
// standard-library calls are out of scope (not statically resolvable /
// not ours to annotate).
func checkCallees(pass *isivet.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // the closure itself was already reported
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := isivet.Callee(pass.Info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		calleePkg := pass.Prog.PackageFor(fn.Pkg())
		if calleePkg == nil {
			return true // out of module
		}
		decl := pass.Prog.DeclOf(fn)
		if decl == nil || decl.Body == nil || isivet.IsHotpath(decl) {
			return true // hotpath callees are checked on their own
		}
		for _, v := range scanBody(calleePkg, decl.Body) {
			where := pass.Fset.Position(v.pos)
			pass.Reportf(call.Pos(),
				"calls %s which is not //isi:hotpath and may allocate: %s (%s:%d)",
				fn.Name(), v.msg, where.Filename, where.Line)
		}
		return true
	})
}
