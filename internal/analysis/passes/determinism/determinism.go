// Package determinism enforces the pipeline's bit-identical reproducibility
// contract: every equivalence suite (ingress, batch repair, sharding,
// fault matrix) asserts that a fixed seed produces identical assignments, so no
// output-affecting control flow in the deterministic packages may read the
// wall clock, global PRNG state, or unordered map/select scheduling.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/vetkit"
)

// deterministicPkgs are the package base names (repro/internal/<name>)
// whose outputs feed the equivalence suites. obs, trace, spatial, roadnet,
// mip and exp are deliberately outside the set: they either never touch
// assignment order or are measurement-only.
var deterministicPkgs = map[string]bool{
	"core": true, "dispatch": true, "ingest": true, "sim": true,
	"workload": true, "faults": true, "sp": true, "cache": true,
}

// randConstructors are math/rand package-level functions that only build
// explicitly-seeded generators and never touch the global Source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

var Analyzer = &vetkit.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global math/rand, multi-channel selects, " +
		"and order-dependent writes under map iteration in the deterministic packages",
	Run: run,
}

func run(pass *vetkit.Pass) error {
	if !deterministicPkgs[vetkit.PkgBase(pass.Pkg.Path())] {
		return nil
	}
	d := &checker{pass: pass, reported: map[token.Pos]bool{}}
	for _, f := range pass.Files {
		ast.Inspect(f, d.visit)
	}
	return nil
}

type checker struct {
	pass     *vetkit.Pass
	reported map[token.Pos]bool // nested map-range walks may revisit a write
}

func (d *checker) reportOnce(pos token.Pos, format string, args ...any) {
	if !d.reported[pos] {
		d.reported[pos] = true
		d.pass.Reportf(pos, format, args...)
	}
}

func (d *checker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		d.checkSelector(n)
	case *ast.SelectStmt:
		d.checkSelect(n)
	case *ast.RangeStmt:
		d.checkMapRange(n)
	}
	return true
}

// checkSelector flags wall-clock reads and global math/rand use.
func (d *checker) checkSelector(sel *ast.SelectorExpr) {
	fn, ok := d.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			d.reportOnce(sel.Pos(),
				"wall-clock read (time.%s) in deterministic package %s: outputs must depend only on the seed and the input stream",
				fn.Name(), vetkit.PkgBase(d.pass.Pkg.Path()))
		}
	case "math/rand", "math/rand/v2":
		// Only package-level functions share the global Source; methods on
		// an explicitly seeded *rand.Rand have a receiver and are fine.
		if fn.Type().(*types.Signature).Recv() == nil && !randConstructors[fn.Name()] {
			d.reportOnce(sel.Pos(),
				"global math/rand state (rand.%s) in deterministic package %s: use an explicitly seeded rand.New(rand.NewSource(seed))",
				fn.Name(), vetkit.PkgBase(d.pass.Pkg.Path()))
		}
	}
}

// checkSelect flags selects that race two ready channels: which case fires
// is scheduler-chosen, so any output derived from it is nondeterministic.
// Single-channel selects (with or without default) are fine.
func (d *checker) checkSelect(sel *ast.SelectStmt) {
	comms := 0
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
			comms++
		}
	}
	if comms >= 2 {
		d.reportOnce(sel.Pos(),
			"select over %d channels in deterministic package %s: case choice between ready channels is scheduler-dependent",
			comms, vetkit.PkgBase(d.pass.Pkg.Path()))
	}
}

// checkMapRange flags order-dependent writes performed while ranging over a
// map. Order-independent updates are deliberately exempt: stores into a map
// (m2[k] = v), deletes, and commutative integer accumulation (+=, -=, |=,
// &=, ^=, ++, --). Everything else that mutates state declared outside the
// loop — appends, plain assignments, float accumulation, channel sends, and
// returns that leak the iteration variables — depends on Go's randomized
// map iteration order.
func (d *checker) checkMapRange(rs *ast.RangeStmt) {
	if _, ok := d.pass.TypesInfo.TypeOf(rs.X).Underlying().(*types.Map); !ok {
		return
	}
	local := func(obj types.Object) bool {
		return obj == nil || (obj.Pos() >= rs.Pos() && obj.Pos() < rs.End())
	}
	loopVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			loopVars[d.pass.TypesInfo.ObjectOf(id)] = true
		}
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				d.checkWrite(rs, n.Tok, lhs, rhsFor(n, i), local)
			}
		case *ast.IncDecStmt:
			if !d.integer(n.X) {
				d.checkWrite(rs, token.ASSIGN, n.X, nil, local)
			}
		case *ast.SendStmt:
			d.reportOnce(n.Pos(), "channel send under map iteration: delivery order follows the randomized map order")
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if d.mentionsAny(res, loopVars) {
					d.reportOnce(n.Pos(), "return leaks a map iteration variable: which entry is returned depends on map order")
					break
				}
			}
		}
		return true
	})
}

func rhsFor(n *ast.AssignStmt, i int) ast.Expr {
	if len(n.Rhs) == len(n.Lhs) {
		return n.Rhs[i]
	}
	if len(n.Rhs) == 1 {
		return n.Rhs[0]
	}
	return nil
}

// checkWrite classifies one assignment target inside a map-range body.
func (d *checker) checkWrite(rs *ast.RangeStmt, tok token.Token, lhs, rhs ast.Expr, local func(types.Object) bool) {
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	// Stores into a map are order-independent (last write per key wins and
	// keys from distinct iterations are distinct map slots).
	if idx, ok := lhs.(*ast.IndexExpr); ok {
		if _, isMap := d.pass.TypesInfo.TypeOf(idx.X).Underlying().(*types.Map); isMap {
			return
		}
	}
	root := vetkit.RootIdent(lhs)
	if root == nil || local(d.pass.TypesInfo.ObjectOf(root)) {
		return
	}
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		if d.integer(lhs) {
			return // commutative and associative: order cannot matter
		}
		d.reportOnce(lhs.Pos(),
			"non-integer accumulation into %s under map iteration: floating-point reduction order follows the randomized map order", vetkit.Render(lhs))
	case token.ASSIGN, token.DEFINE:
		if call, ok := rhs.(*ast.CallExpr); ok {
			if fid, ok := call.Fun.(*ast.Ident); ok && fid.Name == "append" {
				d.reportOnce(lhs.Pos(),
					"append into %s under map iteration: element order follows the randomized map order (sort the keys first)", vetkit.Render(lhs))
				return
			}
		}
		d.reportOnce(lhs.Pos(),
			"write to %s under map iteration: the surviving value depends on the randomized map order", vetkit.Render(lhs))
	default:
		d.reportOnce(lhs.Pos(),
			"write to %s under map iteration: the surviving value depends on the randomized map order", vetkit.Render(lhs))
	}
}

func (d *checker) integer(e ast.Expr) bool {
	t := d.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func (d *checker) mentionsAny(e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[d.pass.TypesInfo.ObjectOf(id)] {
			found = true
		}
		return !found
	})
	return found
}
