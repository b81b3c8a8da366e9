package core

import (
	"testing"

	"jinjing/internal/header"
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
