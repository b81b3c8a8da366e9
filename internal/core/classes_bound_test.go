package core

import (
	"strings"
	"testing"

	"jinjing/internal/header"
	"jinjing/internal/netgen"
)

// boundControls builds n synthetic controls whose matches inflate the
// per-field atom counts deriveClasses sees: each control contributes a
// distinct /8 source prefix and disjoint singleton-pair source and
// destination port ranges, so src atoms grow ~n and each port axis
// grows ~2n. Destination stays wildcard — the dst-atom count comes
// entirely from the scope's entering traffic.
func boundControls(n int) []Control {
	cs := make([]Control, n)
	for i := range cs {
		cs[i] = Control{Match: header.Match{
			Src:     header.Prefix{Addr: uint32(i+1) << 24, Len: 8},
			SrcPort: header.PortRange{Lo: uint16(4*i + 2), Hi: uint16(4*i + 3)},
			DstPort: header.PortRange{Lo: uint16(4 * i), Hi: uint16(4*i + 1)},
			Proto:   header.AnyProto,
		}}
	}
	return cs
}

// TestDeriveClassesBound exercises both failure branches of the
// maxGeneratedClasses guard: an over-bound class space is refused with
// the atom counts and the bound named, and when a single destination
// atom already exceeds the bound the error says so. Both fire before the
// output slice is allocated, so the test never materializes a
// multi-million-class cross product.
func TestDeriveClassesBound(t *testing.T) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 1))

	// Sanity: the untouched engine derives classes without error.
	if _, err := New(w.Net, w.Net, w.Scope, DefaultOptions()).deriveClasses(); err != nil {
		t.Fatalf("baseline deriveClasses: %v", err)
	}

	// Branch 1: over the bound. ~60 controls put the non-dst product near
	// 900k, and the scope's dst atoms multiply it well past 2M; the error
	// must name the atom counts and the bound.
	e := New(w.Net, w.Net, w.Scope, DefaultOptions())
	e.Controls = boundControls(60)
	_, err := e.deriveClasses()
	if err == nil {
		t.Fatal("over-bound derivation succeeded; guard gone")
	}
	for _, frag := range []string{"class space too large", "dst ×", "proto atoms", "bound 2000000"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("over-bound error %q missing %q", err, frag)
		}
	}
	if strings.Contains(err.Error(), "even one destination atom") {
		t.Fatalf("over-bound error %q blames a single destination atom", err)
	}

	// Branch 2: a single destination atom exceeds the bound on its own
	// (~120 controls push the non-dst product past 2M), so no narrower
	// scope can help and the error must say so.
	e = New(w.Net, w.Net, w.Scope, DefaultOptions())
	e.Controls = boundControls(120)
	_, err = e.deriveClasses()
	if err == nil {
		t.Fatal("dst-irreducible over-bound derivation succeeded")
	}
	for _, frag := range []string{"even one destination atom", "2000000 bound"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("dst-irreducible error %q missing %q", err, frag)
		}
	}
}
