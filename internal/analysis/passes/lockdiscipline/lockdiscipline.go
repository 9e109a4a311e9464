// Package lockdiscipline enforces the merge discipline repo-wide:
// sim.Metrics, obs.Histogram, and the critical-path aggregates
// obs.Attribution / obs.StageStats aggregate only through their documented
// merge functions (Metrics.Merge, Histogram.Merge/CopyFrom,
// Attribution.Merge — StageStats rides inside an Attribution and has no
// standalone merge). Value copies alias the histogram pointers inside, and
// field-by-field merges silently miss fields added later — both have
// bitten concurrent metric aggregation before, so they are banned outside
// the defining packages. Copies of values that contain a sync primitive
// are go vet's copylocks check, which CI runs.
package lockdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/vetkit"
)

var Analyzer = &vetkit.Analyzer{
	Name: "lockdiscipline",
	Doc: "sim.Metrics, obs.Histogram, and obs.Attribution/StageStats are not copied by value " +
		"and merge only via their documented merge functions",
	Run: run,
}

// mergeOnly lists types whose aggregation must go through their merge
// functions, as (package base, type name, merge spelling).
var mergeOnly = []struct{ pkg, name, via string }{
	{"sim", "Metrics", "Metrics.Merge"},
	{"obs", "Histogram", "Histogram.Merge or CopyFrom"},
	{"obs", "Attribution", "Attribution.Merge"},
	{"obs", "StageStats", "Attribution.Merge"},
}

type checker struct {
	pass *vetkit.Pass
}

func run(pass *vetkit.Pass) error {
	c := &checker{pass: pass}
	for _, f := range pass.Files {
		ast.Inspect(f, c.visit)
	}
	return nil
}

func (c *checker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncDecl:
		if n.Recv != nil {
			c.checkFields(n.Recv, "receiver")
		}
		if n.Type.Params != nil {
			c.checkFields(n.Type.Params, "parameter")
		}
	case *ast.FuncLit:
		if n.Type.Params != nil {
			c.checkFields(n.Type.Params, "parameter")
		}
	case *ast.AssignStmt:
		c.checkAssign(n)
	case *ast.RangeStmt:
		if n.Value != nil {
			c.checkCopy(n.Value.Pos(), c.pass.TypesInfo.TypeOf(n.Value), "range value copies")
		}
	}
	return true
}

// checkFields flags by-value parameters and receivers of merge-only types.
func (c *checker) checkFields(fl *ast.FieldList, kind string) {
	for _, field := range fl.List {
		t := c.pass.TypesInfo.TypeOf(field.Type)
		c.checkCopy(field.Type.Pos(), t, "by-value "+kind+" copies")
	}
}

// checkAssign flags assignments that copy a merge-only value and hand-rolled
// field-by-field merges of merge-only types.
func (c *checker) checkAssign(n *ast.AssignStmt) {
	for i, rhs := range n.Rhs {
		if copiesExisting(rhs) {
			c.checkCopy(rhs.Pos(), c.pass.TypesInfo.TypeOf(rhs), "assignment copies")
		}
		if i < len(n.Lhs) {
			c.checkHandMerge(n, n.Lhs[i], rhs)
		}
	}
}

// copiesExisting reports whether evaluating e yields a copy of an existing
// value (as opposed to a fresh composite literal, call result, pointer, or
// zero value).
func copiesExisting(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name != "nil"
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	case *ast.ParenExpr:
		return copiesExisting(x.X)
	default:
		return false
	}
}

// checkCopy reports a diagnostic when t is a merge-only type copied by
// value outside its defining package.
func (c *checker) checkCopy(pos token.Pos, t types.Type, how string) {
	if mo := c.mergeOnlyType(t); mo != nil && !c.inDefiningPkg(t) {
		c.pass.Reportf(pos, "%s %s by value: it aggregates only through %s (value copies alias its internal histograms)", how, typeName(t), mo.via)
	}
}

// checkHandMerge flags `dst.F += src.F` / `dst.F = src.F` where dst and
// src are distinct values of the same merge-only type: a field-by-field
// merge outside the documented merge function.
func (c *checker) checkHandMerge(n *ast.AssignStmt, lhs, rhs ast.Expr) {
	lsel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return
	}
	lbase := deref(c.pass.TypesInfo.TypeOf(lsel.X))
	mo := c.mergeOnlyType(lbase)
	if mo == nil || c.inDefiningPkg(lbase) {
		return
	}
	found := false
	ast.Inspect(rhs, func(rn ast.Node) bool {
		rsel, ok := rn.(*ast.SelectorExpr)
		if !ok || found {
			return !found
		}
		rbase := deref(c.pass.TypesInfo.TypeOf(rsel.X))
		if rsel.Sel.Name == lsel.Sel.Name &&
			rbase != nil && types.Identical(rbase, lbase) &&
			vetkit.Render(rsel.X) != vetkit.Render(lsel.X) {
			found = true
		}
		return !found
	})
	if found {
		c.pass.Reportf(n.Pos(),
			"field-by-field merge of %s (%s from another instance): use %s so fields added later are not silently dropped",
			typeName(lbase), lsel.Sel.Name, mo.via)
	}
}

// mergeOnlyType returns the mergeOnly entry matching t, or nil.
func (c *checker) mergeOnlyType(t types.Type) *struct{ pkg, name, via string } {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	for i := range mergeOnly {
		m := &mergeOnly[i]
		if named.Obj().Name() == m.name && vetkit.PkgBase(named.Obj().Pkg().Path()) == m.pkg {
			return m
		}
	}
	return nil
}

// inDefiningPkg reports whether the pass is analyzing the package that
// declares t (whose internals legitimately touch raw fields).
func (c *checker) inDefiningPkg(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == c.pass.Pkg
}

func deref(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func typeName(t types.Type) string {
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
		return vetkit.PkgBase(named.Obj().Pkg().Path()) + "." + named.Obj().Name()
	}
	return t.String()
}
