package jinjing_test

import (
	"fmt"

	"jinjing"
)

// ExampleParseProgram shows the LAI front end: parse an intent, bind it
// to a network, run it.
func ExampleParseProgram() {
	// Two routers in a row; R1 filters what may reach R2.
	net := jinjing.NewNetwork()
	r1, r2 := net.Device("R1"), net.Device("R2")
	r1in, r1out := r1.Interface("in"), r1.Interface("out")
	r2in, r2out := r2.Interface("in"), r2.Interface("out")
	net.AddLink(r1out, r2in)
	p := jinjing.MustParsePrefix("10.0.0.0/8")
	r1.AddRoute(p, r1out)
	r2.AddRoute(p, r2out)
	r1in.SetACL(jinjing.In, jinjing.MustParseACL("deny dst 10.1.0.0/16, permit all"))

	prog, _ := jinjing.ParseProgram(`
scope R1:*, R2:*
entry R1:in
allow R1:*
acl careless { permit all }
modify R1:in to acl careless
check
`)
	resolved, _ := jinjing.ResolveProgram(prog, net, jinjing.ResolveOptions{})
	report, _ := jinjing.Run(resolved, jinjing.DefaultOptions())
	fmt.Println("consistent:", report.Checks[0].Consistent)
	// Output:
	// consistent: false
}

// ExampleEquivalentACLs shows ACL equivalence, decided on packet sets.
func ExampleEquivalentACLs() {
	a := jinjing.MustParseACL("deny dst 1.0.0.0/8, permit all")
	b := jinjing.MustParseACL("deny dst 1.0.0.0/9, deny dst 1.128.0.0/9, permit all")
	fmt.Println(jinjing.EquivalentACLs(a, b))
	// Output:
	// true
}

// ExampleSimplifyACL shows redundant-rule removal.
func ExampleSimplifyACL() {
	a := jinjing.MustParseACL(
		"permit dst 1.0.0.0/8, deny dst 1.0.0.0/8, deny dst 6.0.0.0/8, permit all")
	fmt.Println(jinjing.SimplifyACL(a))
	// Output:
	// deny dst 6.0.0.0/8, permit all
}
