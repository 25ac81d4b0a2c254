package analyzers

import (
	"go/ast"
	"go/types"
)

// SharedWrite polices the worker closures of the parallel router's
// snapshot-evaluate/ordered-commit search (route/search.go, route.go) and
// of the multi-seed placer's concurrent anneals (place/parallel.go). Inside
// a `go func(...)` literal in flow-stage code, the only sanctioned writes
// to captured state are slice-element slot writes (`results[i] = ...`,
// `&batch[i]` handed to a pure evaluator): each worker owns disjoint
// slots, so commits stay ordered and the result is bit-identical at every
// worker count. A write to a captured plain
// variable, a captured map, a captured struct field, or through a captured
// pointer is exactly the data race the -race determinism sweeps can miss
// when the schedule happens not to interleave — flagged here so it can
// never land.
var SharedWrite = &Analyzer{
	Name:           "sharedwrite",
	Doc:            "inside go-routine closures in flow-stage code, only per-worker slice slots may be written; no writes to captured variables, maps or fields",
	FlowStagesOnly: true,
	SkipTests:      true,
	Run:            runSharedWrite,
}

func runSharedWrite(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := gs.Call.Fun.(*ast.FuncLit)
			if !ok {
				return true
			}
			checkWorkerBody(pass, lit)
			return true
		})
	}
}

// checkWorkerBody flags captured-state writes inside one worker closure.
// Nested function literals run on the same goroutine (defers, helpers) and
// are included; nested `go` statements get their own top-level visit.
func checkWorkerBody(pass *Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.GoStmt); ok {
			if _, isLit := inner.Call.Fun.(*ast.FuncLit); isLit {
				return false
			}
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, l := range st.Lhs {
				checkWriteTarget(pass, lit, l)
			}
		case *ast.IncDecStmt:
			checkWriteTarget(pass, lit, st.X)
		}
		return true
	})
}

// checkWriteTarget classifies one assignment target inside a worker
// closure. Walking toward the base: a slice/array index step legitimizes
// the write (a batch slot); reaching a captured identifier, a captured map
// index, or a dereference of a captured pointer without passing a slot
// step is a shared write.
func checkWriteTarget(pass *Pass, lit *ast.FuncLit, l ast.Expr) {
	for {
		switch e := l.(type) {
		case *ast.Ident:
			if e.Name == "_" {
				return
			}
			// A := target defines a closure-local; fine.
			if pass.TypesInfo.Defs[e] != nil {
				return
			}
			obj, ok := pass.TypesInfo.Uses[e].(*types.Var)
			if ok && capturedBy(lit, obj) {
				pass.Reportf(e.Pos(), "worker goroutine writes captured variable %q: workers may only fill their own batch slot (a slice element); route other results through the ordered commit", e.Name)
			}
			return
		case *ast.IndexExpr:
			t := pass.TypesInfo.TypeOf(e.X)
			if t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					if obj := rootVar(pass, e.X); obj != nil && capturedBy(lit, obj) {
						pass.Reportf(e.Pos(), "worker goroutine writes captured map %q: map writes are unsynchronized and commit order is lost; collect into per-worker slots instead", obj.Name())
					}
					return
				}
			}
			return // slice/array slot write: the sanctioned pattern
		case *ast.StarExpr:
			if obj := rootVar(pass, e.X); obj != nil && capturedBy(lit, obj) {
				pass.Reportf(e.Pos(), "worker goroutine writes through captured pointer %q: the pointee is shared across workers", obj.Name())
			}
			return
		case *ast.SelectorExpr:
			l = e.X
		case *ast.ParenExpr:
			l = e.X
		default:
			return
		}
	}
}

// capturedBy reports whether a variable is declared outside the literal's
// source range — i.e. captured from the enclosing function (or package
// scope) rather than a parameter or local of the closure itself.
func capturedBy(lit *ast.FuncLit, obj *types.Var) bool {
	return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
}
