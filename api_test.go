package jinjing_test

import (
	"encoding/json"
	"strings"
	"testing"

	"jinjing"
)

// buildTinyNet makes a 2-router chain through the public facade: traffic
// enters R1:in, exits R2:out, with one ACL on R1:in.
func buildTinyNet() *jinjing.Network {
	n := jinjing.NewNetwork()
	r1, r2 := n.Device("R1"), n.Device("R2")
	r1in, r1out := r1.Interface("in"), r1.Interface("out")
	r2in, r2out := r2.Interface("in"), r2.Interface("out")
	n.AddLink(r1out, r2in)
	p := jinjing.MustParsePrefix("10.0.0.0/8")
	r1.AddRoute(p, r1out)
	r2.AddRoute(p, r2out)
	r1in.SetACL(jinjing.In, jinjing.MustParseACL("deny dst 10.1.0.0/16, permit all"))
	return n
}

func TestFacadeCheckFixRoundTrip(t *testing.T) {
	net := buildTinyNet()
	prog, err := jinjing.ParseProgram(`
scope R1:*, R2:*
entry R1:in
allow R1:*
acl broken { permit all }
modify R1:in to acl broken
check
fix
`)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := jinjing.ResolveProgram(prog, net, jinjing.ResolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	report, err := jinjing.Run(resolved, jinjing.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if report.Checks[0].Consistent {
		t.Fatal("dropping the deny must be flagged")
	}
	if !report.Fixes[0].Verified {
		t.Fatal("fix must verify")
	}
	// The fixed R1:in must deny 10.1/16 again (semantically).
	r1in, _ := report.Final.LookupInterface("R1:in")
	pkt := jinjing.Packet{DstIP: 0x0a010001}
	if r1in.ACL(jinjing.In).Permits(pkt) {
		t.Fatal("fixed ACL should deny 10.1.0.0/16")
	}
}

func TestFacadeACLHelpers(t *testing.T) {
	a := jinjing.MustParseACL("permit dst 10.0.0.0/9, permit dst 10.128.0.0/9, permit all")
	if !jinjing.EquivalentACLs(a, jinjing.PermitAll()) {
		t.Fatal("split permits plus permit-all is permit-all")
	}
	s := jinjing.SimplifyACL(a)
	if s.Len() != 0 {
		t.Fatalf("simplify should drop everything, got %v", s)
	}
	if _, err := jinjing.ParseACL("nonsense"); err == nil {
		t.Fatal("bad ACL text must error")
	}
	if _, err := jinjing.ParsePrefix("1.2.3.4/99"); err == nil {
		t.Fatal("bad prefix must error")
	}
}

func TestFacadeWAN(t *testing.T) {
	w := jinjing.BuildWAN(jinjing.DefaultWANConfig(jinjing.SmallWAN, 3))
	if len(w.Net.Devices) == 0 || len(w.AllPrefixes()) == 0 {
		t.Fatal("WAN should have devices and prefixes")
	}
	e := jinjing.NewEngine(w.Net, w.Net.Clone(), w.Scope, jinjing.DefaultOptions())
	if !e.Check().Consistent {
		t.Fatal("identical snapshots must check consistent")
	}
}

func TestFacadeNetworkJSON(t *testing.T) {
	net := buildTinyNet()
	data, err := json.Marshal(net)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "10.1.0.0/16") {
		t.Fatal("serialized network should carry the ACL text")
	}
	back := jinjing.NewNetwork()
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if _, err := back.LookupInterface("R1:in"); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeControlGenerate(t *testing.T) {
	net := buildTinyNet()
	e := jinjing.NewEngine(net, net.Clone(), jinjing.NewScope("R1", "R2"), jinjing.DefaultOptions())
	r1in, _ := net.LookupInterface("R1:in")
	r2out, _ := net.LookupInterface("R2:out")
	e.Allow = []jinjing.ACLBinding{{Iface: r1in, Dir: jinjing.In}}
	e.Controls = []jinjing.Control{{
		From:  jinjing.NewIfaceSet(r1in),
		To:    jinjing.NewIfaceSet(r2out),
		Mode:  jinjing.Open,
		Match: jinjing.DstMatch(jinjing.MustParsePrefix("10.1.0.0/16")),
	}}
	res, err := e.Generate(e.Allow)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("open plan must verify")
	}
	gen, _ := res.Generated.LookupInterface("R1:in")
	if !gen.ACL(jinjing.In).Permits(jinjing.Packet{DstIP: 0x0a010001}) {
		t.Fatal("opened traffic must now be permitted")
	}
}
