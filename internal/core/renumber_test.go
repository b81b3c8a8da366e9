package core_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"jinjing/internal/acl"
	"jinjing/internal/core"
	"jinjing/internal/header"
	"jinjing/internal/netgen"
	"jinjing/internal/topo"
)

// renumberedAs copies n interface by interface in the order of the
// ordinals the same-named interfaces have in ref — reversed with reverse
// — so that the copy numbers its interfaces as ref does, or in ref's
// reverse order. ACLs, routes and links are copied as they are.
func renumberedAs(n, ref *topo.Network, reverse bool) *topo.Network {
	var ifaces []*topo.Interface
	for _, d := range n.SortedDevices() {
		ifaces = append(ifaces, d.SortedInterfaces()...)
	}
	refOrd := func(i *topo.Interface) int {
		r, err := ref.LookupInterface(i.ID())
		if err != nil {
			panic(err)
		}
		if reverse {
			return -r.Ord()
		}
		return r.Ord()
	}
	slices.SortFunc(ifaces, func(a, b *topo.Interface) int { return refOrd(a) - refOrd(b) })
	out := topo.NewNetwork()
	for _, i := range ifaces {
		ni := out.Device(i.Device.Name).Interface(i.Name)
		for dir, a := range i.ACLs {
			if a != nil {
				ni.SetACL(topo.Direction(dir), a.Clone())
			}
		}
	}
	for _, d := range n.SortedDevices() {
		nd := out.Device(d.Name)
		for _, e := range d.FIB {
			nd.AddRoute(e.Prefix, nd.Interfaces[e.Out.Name])
		}
		for _, i := range d.SortedInterfaces() {
			if peer := n.Peer(i); peer != nil {
				out.AddLink(nd.Interfaces[i.Name], out.Devices[peer.Device.Name].Interfaces[peer.Name])
			}
		}
	}
	return out
}

// sameOrdinals reports whether every interface of a has the ordinal of
// its namesake in b.
func sameOrdinals(a, b *topo.Network) bool {
	for _, d := range a.SortedDevices() {
		for _, i := range d.SortedInterfaces() {
			if j, err := b.LookupInterface(i.ID()); err != nil || j.Ord() != i.Ord() {
				return false
			}
		}
	}
	return true
}

// renumberedUpdate is the small WAN of seed 7 and an update of it that
// perturbs 5% of its rules, unbinds one ACL and binds one where Before
// has none, so that some bindings are bound in one snapshot only.
func renumberedUpdate() (*netgen.WAN, *topo.Network) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 7))
	perturbed := w.Perturb(8, 5)
	perturbed.Devices["edge1"].Interfaces["ext"].SetACL(topo.In, nil)
	deny := acl.MustParse("deny dst " + w.EdgePrefixes["edge5"][0].String() + ", permit all")
	if i := perturbed.Devices["edge2"].Interfaces["u0"]; i.ACL(topo.Out) == nil {
		i.SetACL(topo.Out, deny)
	} else {
		panic("edge2:u0 carries an egress ACL already")
	}
	return w, perturbed
}

// TestRenumberedAfterMatches runs a find-all check, a fix and a
// generate whose After numbers its interfaces as Before does, and again
// on the same After numbered in reverse; the reports, the fixed and the
// generated networks must be the same. Core keys a binding by Before's
// interface ordinals and moves a binding to another network by name, so
// a stage that read a Before table with an After ordinal would tell the
// two apart (or panic on the table's network check).
func TestRenumberedAfterMatches(t *testing.T) {
	w, perturbed := renumberedUpdate()
	migrated := w.Net.Clone()
	for _, b := range must(netgen.Bindings(migrated, w.AggACLs)) {
		b.Iface.SetACL(b.Dir, nil)
	}
	var from, to []*topo.Interface
	for _, cn := range w.CoreNames {
		from = append(from, w.Net.Devices[cn].Interfaces["up"])
	}
	for _, en := range w.EdgeNames {
		to = append(to, w.Net.Devices[en].Interfaces["ext"])
	}
	ctrl := core.Control{
		From: core.NewIfaceSet(from...), To: core.NewIfaceSet(to...),
		Mode: core.Open, Match: header.DstMatch(w.OpenSelections(7, 1)[0]),
	}

	run := func(reverse bool) (string, []byte, []byte) {
		after, genAfter := renumberedAs(perturbed, w.Net, reverse), renumberedAs(migrated, w.Net, reverse)
		if sameOrdinals(after, w.Net) == reverse || sameOrdinals(genAfter, w.Net) == reverse {
			t.Fatalf("reverse=%v: the Afters do not number their interfaces as intended", reverse)
		}
		opts := core.DefaultOptions()
		opts.FindAllViolations = true
		rep := &core.Report{}

		e := core.New(w.Net, after, w.Scope, opts)
		e.Controls = []core.Control{ctrl}
		rep.Checks = append(rep.Checks, e.Check())

		e = core.New(w.Net, after, w.Scope, opts)
		e.Controls = []core.Control{ctrl}
		e.Allow = must(netgen.Bindings(w.Net, slices.Concat(w.EdgeACLs, w.AggACLs, w.CoreACLs)))
		fr, err := e.Fix()
		if err != nil {
			t.Fatal(err)
		}
		rep.Fixes = append(rep.Fixes, fr)

		e = core.New(w.Net, genAfter, w.Scope, opts)
		e.Allow = must(netgen.Bindings(w.Net, w.EdgeACLs))
		gr, err := e.Generate(must(netgen.Bindings(genAfter, w.AggACLs)))
		if err != nil {
			t.Fatal(err)
		}
		rep.Generates = append(rep.Generates, gr)

		var out bytes.Buffer
		rep.Print(&out)
		return out.String(), must(json.Marshal(fr.Fixed)), must(json.Marshal(gr.Generated))
	}
	report, fixed, generated := run(false)
	rReport, rFixed, rGenerated := run(true)
	if report != rReport {
		t.Errorf("reports differ\nBefore's numbering:\n%s\nreversed:\n%s", report, rReport)
	}
	if !bytes.Equal(fixed, rFixed) || !bytes.Equal(generated, rGenerated) {
		t.Error("the fixed or the generated network differs under the reversed numbering")
	}
	if !bytes.Contains([]byte(report), []byte("check: INCONSISTENT")) || !bytes.Contains([]byte(report), []byte("add to ")) {
		t.Fatalf("the population is too weak: no violation or no fix action\n%s", report)
	}
}

// TestRenumberedWarmRecheck re-checks, on one verdict cache, the same
// After numbered as Before and then in reverse: the edit changes no
// binding, so the change-impact analysis sees none and every decided FEC
// replays.
func TestRenumberedWarmRecheck(t *testing.T) {
	w, perturbed := renumberedUpdate()
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	opts.Verdicts = core.NewVerdictCache()
	e := core.New(w.Net, renumberedAs(perturbed, w.Net, false), w.Scope, opts)
	cold := e.Check()
	e.UpdateAfter(renumberedAs(perturbed, w.Net, true))
	warm := e.Check()
	if warm.Stats.ChangedBindings != 0 || warm.Stats.AffectedFECs != 0 {
		t.Fatalf("renumbering alone changed %d bindings, affected %d FECs", warm.Stats.ChangedBindings, warm.Stats.AffectedFECs)
	}
	if warm.Stats.FECCacheMisses != 0 || warm.Stats.FECCacheHits != int64(cold.SolvedFECs) {
		t.Fatalf("warm re-check: %+v, want all %d decided FECs replayed", warm.Stats, cold.SolvedFECs)
	}
}

// TestSnapshotDigestIgnoresNumbering exports the verdict cache of the
// same check over a Before numbered as built and over its copy numbered
// in reverse, each under a control: the snapshots' digests, which a
// restored daemon compares, must agree.
func TestSnapshotDigestIgnoresNumbering(t *testing.T) {
	w, perturbed := renumberedUpdate()
	export := func(before *topo.Network) *core.VerdictSnapshot {
		opts := core.DefaultOptions()
		opts.Verdicts = core.NewVerdictCache()
		e := core.New(before, renumberedAs(perturbed, before, false), w.Scope, opts)
		e.Controls = []core.Control{{
			From: core.IfacesNamed(before, "core0:up", "core1:up"), To: core.IfacesNamed(before, "edge3:ext"),
			Mode: core.Isolate, Match: header.DstMatch(w.OpenSelections(7, 1)[0]),
		}}
		e.Check()
		return e.ExportVerdicts()
	}
	plain, reversed := export(w.Net), export(renumberedAs(w.Net, w.Net, true))
	if plain == nil || reversed == nil || plain.Config != reversed.Config {
		t.Fatalf("digests differ under a reversed numbering: %+v vs %+v", plain, reversed)
	}
	if plain.NumEntries() == 0 || plain.NumEntries() != reversed.NumEntries() {
		t.Fatalf("%d entries, %d reversed", plain.NumEntries(), reversed.NumEntries())
	}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
