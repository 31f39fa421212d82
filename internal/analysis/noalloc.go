package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// noallocAnalyzer is the compile-time half of the zero-steady-state-
// allocation guarantees the AllocsPerRun tests gate at runtime: a
// function annotated //xqlint:noalloc must contain no AST-level
// allocation site, and neither may anything it calls inside the module.
// Flagged sites: make/new, append (growth cannot be ruled out
// statically; amortized appends carry an //xqlint:ignore noalloc with
// the reason), slice/map composite literals and &T{} literals, closures
// (func literals capture), string concatenation and string<->slice
// conversions, interface boxing of non-pointer values at call sites,
// any fmt.* call, go statements, and calls that cannot be verified
// (func values, interface-dispatched methods). Same-package callees are
// checked transitively; a call into another module package is only
// accepted when the callee carries its own //xqlint:noalloc annotation,
// so the guarantee composes across packages. xqlint -escapes
// cross-checks the annotations against the compiler's real escape
// analysis (go build -gcflags=-m), so the static gate and the runtime
// AllocsPerRun tests corroborate each other.
var noallocAnalyzer = &Analyzer{
	Name: "noalloc",
	Doc:  "functions annotated //xqlint:noalloc (and their module callees) must contain no allocation sites",
	Run:  runNoalloc,
}

func runNoalloc(p *Pass) {
	// Map every function declared in this package to its AST, and find
	// the annotated roots.
	decls := map[types.Object]*ast.FuncDecl{}
	var roots []*ast.FuncDecl
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := p.Info.Defs[fd.Name]; obj != nil {
				decls[obj] = fd
			}
			if found, _ := funcAnnotation(fd, "noalloc"); found {
				roots = append(roots, fd)
			}
		}
	}
	if len(roots) == 0 {
		return
	}

	checked := map[*ast.FuncDecl]bool{}
	var check func(fd *ast.FuncDecl, origin string)
	check = func(fd *ast.FuncDecl, origin string) {
		if checked[fd] {
			return
		}
		checked[fd] = true
		via := ""
		if origin != "" && origin != fd.Name.Name {
			via = " (reached from //xqlint:noalloc " + origin + ")"
		}
		report := func(pos token.Pos, format string, args ...any) {
			p.Reportf(pos, "noalloc", "%s in noalloc function %s%s",
				fmt.Sprintf(format, args...), fd.Name.Name, via)
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				report(n.Pos(), "closure literal (captures allocate)")
				return false // the closure's own body is the closure's problem
			case *ast.GoStmt:
				report(n.Pos(), "go statement (goroutine stacks allocate)")
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
						report(n.Pos(), "&composite literal")
					}
				}
			case *ast.CompositeLit:
				switch p.Info.TypeOf(n).Underlying().(type) {
				case *types.Slice, *types.Map:
					report(n.Pos(), "%s literal allocates backing storage",
						typeKindWord(p.Info.TypeOf(n)))
				}
			case *ast.BinaryExpr:
				if n.Op == token.ADD && p.Info.Types[ast.Expr(n)].Value == nil &&
					isStringType(p.Info.TypeOf(n)) {
					report(n.OpPos, "string concatenation")
				}
			case *ast.CallExpr:
				checkNoallocCall(p, n, fd, origin, decls, report, check)
			}
			return true
		})
	}
	for _, fd := range roots {
		check(fd, fd.Name.Name)
	}
}

// checkNoallocCall classifies one call inside a noalloc closure walk.
func checkNoallocCall(p *Pass, call *ast.CallExpr, fd *ast.FuncDecl, origin string,
	decls map[types.Object]*ast.FuncDecl,
	report func(pos token.Pos, format string, args ...any),
	check func(fd *ast.FuncDecl, origin string)) {

	// Conversions: string<->[]byte/[]rune copy their payload.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		dst := p.Info.TypeOf(call.Fun)
		if len(call.Args) == 1 {
			src := p.Info.TypeOf(call.Args[0])
			if stringSliceConversion(dst, src) {
				report(call.Pos(), "conversion between string and slice copies")
			}
		}
		return
	}
	switch builtinName(p, call) {
	case "make":
		report(call.Pos(), "make")
		return
	case "new":
		report(call.Pos(), "new")
		return
	case "append":
		report(call.Pos(), "append may grow its backing array")
		return
	case "":
		// not a builtin: fall through
	default:
		return // len/cap/copy/clear/delete/min/max/...: allocation-free
	}

	var callee *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		callee, _ = p.Info.Uses[fun].(*types.Func)
		if callee == nil {
			if _, isVar := p.Info.Uses[fun].(*types.Var); isVar {
				report(call.Pos(), "call through func value %s cannot be verified", fun.Name)
				return
			}
		}
	case *ast.SelectorExpr:
		callee, _ = p.Info.Uses[fun.Sel].(*types.Func)
	}
	if callee == nil {
		report(call.Pos(), "indirect call cannot be verified")
		return
	}
	if sig, ok := callee.Type().(*types.Signature); ok {
		if recv := sig.Recv(); recv != nil {
			if _, ok := recv.Type().Underlying().(*types.Interface); ok {
				report(call.Pos(), "dynamic call %s through an interface cannot be verified", callee.Name())
				return
			}
		}
		// Check arguments against the instantiated signature: a generic
		// callee's type-parameter parameters are interface-constrained
		// but take their arguments unboxed.
		if inst, ok := p.Info.TypeOf(call.Fun).(*types.Signature); ok {
			sig = inst
		}
		checkBoxedArgs(p, call, sig, report)
	}
	pkg := callee.Pkg()
	if pkg == nil {
		return
	}
	full := callee.FullName()
	if strings.HasPrefix(full, "fmt.") {
		report(call.Pos(), "%s allocates (formatting, interface boxing)", full)
		return
	}
	switch {
	case pkg == p.Pkg:
		if calleeDecl, ok := decls[callee]; ok {
			check(calleeDecl, origin)
		}
	case strings.HasPrefix(pkg.Path(), p.Cfg.ModulePath+"/") || pkg.Path() == p.Cfg.ModulePath:
		if !p.noallocRegistry[full] {
			report(call.Pos(), "calls %s, which is not annotated //xqlint:noalloc", full)
		}
	}
}

// checkBoxedArgs flags non-pointer-shaped concrete values passed where
// an interface is expected: the conversion boxes and may allocate.
func checkBoxedArgs(p *Pass, call *ast.CallExpr, sig *types.Signature, report func(pos token.Pos, format string, args ...any)) {
	params := sig.Params()
	if params == nil {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic():
			if call.Ellipsis != token.NoPos {
				continue
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue
		}
		if _, ok := pt.Underlying().(*types.Interface); !ok {
			continue
		}
		at := p.Info.TypeOf(arg)
		if at == nil || isPointerShaped(at) {
			continue
		}
		if _, ok := at.Underlying().(*types.Interface); ok {
			continue
		}
		if tv, ok := p.Info.Types[arg]; ok && tv.IsNil() {
			continue
		}
		report(arg.Pos(), "interface boxing of %s value", at.String())
	}
}

// isPointerShaped reports types whose interface conversion stores the
// value directly in the iface word without allocating.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func stringSliceConversion(dst, src types.Type) bool {
	_, dstSlice := dst.Underlying().(*types.Slice)
	_, srcSlice := src.Underlying().(*types.Slice)
	return (isStringType(dst) && srcSlice) || (dstSlice && isStringType(src))
}

func typeKindWord(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Map:
		return "map"
	default:
		return "slice"
	}
}
