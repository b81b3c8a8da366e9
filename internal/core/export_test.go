package core

import (
	"testing"

	"jinjing/internal/header"
	"jinjing/internal/topo"
)

// SetCubeBudget lowers the set algebra's cube budget to n, so that small
// networks overflow it and take the split, until restore is called or the
// test ends.
func SetCubeBudget(t testing.TB, n int) (restore func()) {
	old := psetCubeBudget
	psetCubeBudget = n
	restore = func() { psetCubeBudget = old }
	t.Cleanup(restore)
	return restore
}

// RefViolatingClasses decides every FEC of e's scope on a fresh solver of
// its own with the per-path Equation-3 reference (refSATViolating) and
// returns the violating FECs' classes in FEC order. It derives e's check
// context, so give it an engine no check has run on.
func RefViolatingClasses(e *Engine) [][]header.Prefix {
	ctx := e.checkContext()
	if ctx.fastPath {
		return nil // no rule changed and no control: nothing can flip
	}
	var out [][]header.Prefix
	for _, fec := range e.FECs() {
		if refSATViolating(e, ctx, fec) {
			out = append(out, fec.Classes)
		}
	}
	return out
}

// ShapeCompiler returns a function that compiles, from a fresh path
// interner each call, the check's path shapes of every FEC of e and then
// fix's index, as a check followed by a fix compiles them, and returns
// the check's shape count. e's check context is derived once, outside it;
// e must have a rule change, or the check compiles nothing.
func ShapeCompiler(e *Engine) func() int {
	ctx := e.checkContext()
	if ctx.fastPath {
		panic("core: ShapeCompiler on an engine with nothing to check")
	}
	e.prepareIncremental(ctx)
	return func() int {
		ctx.walk, ctx.encPairs = nil, nil
		n := 0
		for _, fec := range ctx.fecs {
			n += len(e.compileShapes(ctx, fec))
		}
		e.compileFix(ctx)
		return n
	}
}

// IfacesNamed returns the set of n's interfaces with the given
// "device:interface" names; it panics on a name n lacks.
func IfacesNamed(n *topo.Network, ids ...string) IfaceSet {
	var is []*topo.Interface
	for _, id := range ids {
		i, err := n.LookupInterface(id)
		if err != nil {
			panic(err)
		}
		is = append(is, i)
	}
	return NewIfaceSet(is...)
}
