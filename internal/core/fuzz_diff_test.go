package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"jinjing/internal/acl"
	"jinjing/internal/core"
	"jinjing/internal/header"
	"jinjing/internal/papernet"
	"jinjing/internal/topo"
)

// This file is the differential fuzz harness for the execution layer:
// random small networks plus random ACL edits, with Check, Check at
// several worker counts (which it ignores), fix at one worker and at
// four, and the monolithic baseline required to agree. Any divergence —
// a stale cache entry, a scheduling-dependent witness or plan — shows up
// as a verdict, violation-set or plan mismatch here.

// fuzzPrefix returns destination class i of the fuzz vocabulary:
// (10+i).0.0.0/8.
func fuzzPrefix(i int) header.Prefix {
	return header.Prefix{Addr: uint32(10+i) << 24, Len: 8}
}

// fuzzNet builds a random layered network: 2–3 layers of 1–2 devices,
// every consecutive pair of layers fully linked, traffic entering at
// dangling interfaces on the first layer and leaving at dangling
// interfaces on the last. Forwarding tables route every vocabulary
// prefix (with occasional /9 splits for LPM divergence) to a random
// non-empty subset of downstream interfaces, and random small ACLs are
// attached to a subset of bindings.
func fuzzNet(r *rand.Rand, ports bool) (*topo.Network, *topo.Scope, int) {
	n := topo.NewNetwork()
	nLayers := 2 + r.Intn(2)
	nPref := 3 + r.Intn(3)

	var layers [][]*topo.Device
	var names []string
	for l := 0; l < nLayers; l++ {
		var layer []*topo.Device
		for k := 0; k < 1+r.Intn(2); k++ {
			name := fmt.Sprintf("L%dD%d", l, k)
			layer = append(layer, n.Device(name))
			names = append(names, name)
		}
		layers = append(layers, layer)
	}

	// Entry interfaces: dangling on the first layer.
	var entries []string
	for _, d := range layers[0] {
		d.Interface("e")
		entries = append(entries, d.Name+":e")
	}
	// Links: every device in layer l to every device in layer l+1.
	downs := make(map[string][]*topo.Interface)
	for l := 0; l+1 < nLayers; l++ {
		for _, u := range layers[l] {
			for j, v := range layers[l+1] {
				ui := u.Interface(fmt.Sprintf("d%d", j))
				vi := v.Interface("u" + u.Name)
				n.AddLink(ui, vi)
				downs[u.Name] = append(downs[u.Name], ui)
			}
		}
	}
	// Exit interfaces: dangling on the last layer.
	for _, d := range layers[nLayers-1] {
		downs[d.Name] = append(downs[d.Name], d.Interface("x"))
	}

	// Forwarding: each device routes every vocabulary prefix to a random
	// non-empty subset of its downstream interfaces; sometimes one half
	// of a prefix is routed differently (a /9 LPM split).
	for _, layer := range layers {
		for _, d := range layer {
			outs := downs[d.Name]
			for i := 0; i < nPref; i++ {
				p := fuzzPrefix(i)
				d.AddRoute(p, outs[r.Intn(len(outs))])
				for _, o := range outs {
					if r.Intn(4) == 0 {
						d.AddRoute(p, o)
					}
				}
				if len(outs) > 1 && r.Intn(3) == 0 {
					half, _ := p.Halves()
					d.AddRoute(half, outs[r.Intn(len(outs))])
				}
			}
		}
	}

	// ACLs on a random subset of bindings.
	for _, layer := range layers {
		for _, d := range layer {
			for _, i := range d.SortedInterfaces() {
				for _, dir := range []topo.Direction{topo.In, topo.Out} {
					if r.Intn(3) != 0 {
						continue
					}
					i.SetACL(dir, fuzzACL(r, nPref, ports))
				}
			}
		}
	}

	return n, topo.NewScope(names...).WithEntries(entries...), nPref
}

// fuzzACL builds a random ACL of 1–4 rules over the fuzz vocabulary.
func fuzzACL(r *rand.Rand, nPref int, ports bool) *acl.ACL {
	a := &acl.ACL{Default: acl.Action(r.Intn(4) != 0)} // bias to permit-all default
	for k := 0; k < 1+r.Intn(4); k++ {
		a.Rules = append(a.Rules, fuzzRule(r, nPref, ports))
	}
	return a
}

// fuzzRule builds one random rule: a vocabulary destination (sometimes
// halved), and — when ports is set — occasionally a port or protocol
// constraint. The fix fuzz keeps rules destination-only: port-dimension
// neighborhood expansion is exercised separately and makes random
// instances disproportionately expensive.
func fuzzRule(r *rand.Rand, nPref int, ports bool) acl.Rule {
	m := header.MatchAll
	m.Dst = fuzzPrefix(r.Intn(nPref))
	if r.Intn(3) == 0 {
		lo, hi := m.Dst.Halves()
		if r.Intn(2) == 0 {
			m.Dst = lo
		} else {
			m.Dst = hi
		}
	}
	if ports {
		switch r.Intn(4) {
		case 0:
			m.DstPort = header.PortRange{Lo: 80, Hi: 80}
		case 1:
			m.DstPort = header.PortRange{Lo: 1024, Hi: 2048}
		}
		if r.Intn(4) == 0 {
			m.Proto = header.Proto(6)
		}
	}
	return acl.Rule{Action: acl.Action(r.Intn(2) == 0), Match: m}
}

// fuzzEdit applies 1–3 random ACL edits to the network: flip a rule
// action, delete a rule, insert a random rule, or attach a fresh ACL to
// an unbound interface.
func fuzzEdit(r *rand.Rand, n *topo.Network, nPref int, ports bool) {
	type slot struct {
		iface *topo.Interface
		dir   topo.Direction
	}
	var bound, unbound []slot
	for _, d := range n.SortedDevices() {
		for _, i := range d.SortedInterfaces() {
			for _, dir := range []topo.Direction{topo.In, topo.Out} {
				if i.ACL(dir) != nil {
					bound = append(bound, slot{i, dir})
				} else {
					unbound = append(unbound, slot{i, dir})
				}
			}
		}
	}
	for e := 0; e < 1+r.Intn(3); e++ {
		if len(bound) == 0 || (len(unbound) > 0 && r.Intn(4) == 0) {
			s := unbound[r.Intn(len(unbound))]
			s.iface.SetACL(s.dir, fuzzACL(r, nPref, ports))
			continue
		}
		s := bound[r.Intn(len(bound))]
		a := s.iface.ACL(s.dir)
		switch r.Intn(3) {
		case 0:
			if len(a.Rules) > 0 {
				k := r.Intn(len(a.Rules))
				a.Rules[k].Action = !a.Rules[k].Action
			}
		case 1:
			if len(a.Rules) > 0 {
				k := r.Intn(len(a.Rules))
				a.Rules = append(a.Rules[:k], a.Rules[k+1:]...)
			}
		case 2:
			rule := fuzzRule(r, nPref, ports)
			pos := r.Intn(len(a.Rules) + 1)
			a.Rules = append(a.Rules[:pos], append([]acl.Rule{rule}, a.Rules[pos:]...)...)
		}
	}
}

// checkSignature canonicalizes a check result: the verdict and
// completeness plus, per violation, the counterexample packet, the
// FEC's classes, and the divergent paths, and per undecided FEC its
// index and reason. Sequential and parallel runs must produce the same
// signature byte for byte — the witness pass is deterministic by
// construction, so this also locks in counterexample stability across
// worker counts, and on the happy path it pins Complete=true with an
// empty Unknown list.
func checkSignature(res *core.CheckResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "consistent=%v complete=%v\n", res.Consistent, res.Complete)
	for _, v := range res.Violations {
		fmt.Fprintf(&b, "pkt=%v classes=%v paths=[", v.Packet, v.Classes)
		for _, p := range v.Paths {
			b.WriteString(p.Key())
			b.WriteString(" ")
		}
		b.WriteString("]\n")
	}
	for _, u := range res.Unknown {
		fmt.Fprintf(&b, "unknown fec=%d classes=%v reason=%q\n", u.FEC, u.Classes, u.Reason)
	}
	return b.String()
}

// fecSet extracts the violating FEC identities (their class sets).
func fecSet(res *core.CheckResult) map[string]bool {
	out := make(map[string]bool)
	for _, v := range res.Violations {
		out[fmt.Sprint(v.Classes)] = true
	}
	return out
}

// TestFuzzCheckParallelAgreement is the differential fuzz harness:
// for each random case, Check at one worker, at 2, 4, and 8 workers, and
// CheckMonolithic must agree on the consistency verdict and on the set
// of violating FECs; Check must additionally agree with itself on the
// exact counterexamples at every worker count, which it ignores.
func TestFuzzCheckParallelAgreement(t *testing.T) {
	cases := 220
	if testing.Short() {
		cases = 30
	}
	r := rand.New(rand.NewSource(1729))
	inconsistent := 0
	for iter := 0; iter < cases; iter++ {
		before, scope, nPref := fuzzNet(r, true)
		after := before.Clone()
		fuzzEdit(r, after, nPref, true)

		opts := core.DefaultOptions()
		opts.FindAllViolations = true
		opts.UseDifferential = iter%2 == 0
		if iter%4 == 0 {
			// A generous deadline on a quarter of the cases: it must be
			// byte-inert on the happy path, at every worker count (the
			// signature pins Complete and Unknown too).
			opts.Deadline = time.Hour
		}

		seq := core.New(before, after, scope, opts).Check()
		want := checkSignature(seq)
		wantFECs := fecSet(seq)
		if !seq.Consistent {
			inconsistent++
		}

		for _, workers := range []int{2, 4, 8} {
			// Fresh engine per worker count: the point is that a cold check
			// reproduces the one-worker result, not that one engine is
			// self-consistent.
			par := checkWorkers(core.New(before, after, scope, opts), workers)
			if got := checkSignature(par); got != want {
				t.Fatalf("case %d: Check at Workers=%d diverged from Check\nseq:\n%s\npar:\n%s",
					iter, workers, want, got)
			}
			if gotFECs := fecSet(par); len(gotFECs) != len(wantFECs) {
				t.Fatalf("case %d: Check at Workers=%d violating FEC set %v != %v",
					iter, workers, gotFECs, wantFECs)
			}
			if par.SolvedFECs != seq.SolvedFECs {
				t.Fatalf("case %d: Check at Workers=%d SolvedFECs=%d, sequential=%d",
					iter, workers, par.SolvedFECs, seq.SolvedFECs)
			}
		}

		// A warm engine mixing worker counts must agree too: the cached
		// encoder, job list, and session solver are shared state.
		warm := core.New(before, after, scope, opts)
		if got := checkSignature(checkWorkers(warm, 4)); got != want {
			t.Fatalf("case %d: warm Check at Workers=4 diverged:\n%s\nwant:\n%s", iter, got, want)
		}
		if got := checkSignature(warm.Check()); got != want {
			t.Fatalf("case %d: one-worker Check after the four-worker one diverged:\n%s\nwant:\n%s", iter, got, want)
		}

		mono := core.New(before, after, scope, opts).CheckMonolithic()
		if mono.Consistent != seq.Consistent {
			t.Fatalf("case %d: CheckMonolithic=%v, Check=%v", iter, mono.Consistent, seq.Consistent)
		}
	}
	if inconsistent == 0 {
		t.Fatal("fuzz generator produced no inconsistent case; edits too weak to exercise violations")
	}
	t.Logf("%d cases, %d inconsistent", cases, inconsistent)
}

// refAgrees reports how a check result departs from the per-path SAT
// reference's violating FECs (core.RefViolatingClasses), or "": the
// check must be complete, report exactly the reference's violating FECs
// in find-all mode and its first one otherwise, and so its verdict.
func refAgrees(res *core.CheckResult, ref [][]header.Prefix, findAll bool) string {
	var got, want []string
	for _, v := range res.Violations {
		got = append(got, fmt.Sprint(v.Classes))
	}
	for _, c := range ref {
		want = append(want, fmt.Sprint(c))
	}
	if !findAll && len(want) > 1 {
		want = want[:1]
	}
	if !res.Complete || res.Consistent != (len(ref) == 0) || !slices.Equal(got, want) {
		return fmt.Sprintf("complete=%v consistent=%v violating FECs %v, the SAT reference %v", res.Complete, res.Consistent, got, want)
	}
	return ""
}

// replayWitnesses checks every reported counterexample against both
// snapshots with the concrete ACL evaluator: on each divergent path the
// after chain must decide the packet differently from the desired
// decision — the before chain's, unless a control governs the path and
// matches the packet. It returns the first witness that fails, or "".
func replayWitnesses(res *core.CheckResult, before, after *topo.Network, ctrls []core.Control) string {
	for _, v := range res.Violations {
		if len(v.Paths) == 0 {
			return fmt.Sprintf("violation %v reports no divergent path", v.Packet)
		}
		for _, p := range v.Paths {
			desired := pathPermits(before, p, v.Packet)
			for _, c := range ctrls {
				if c.AppliesTo(p) && c.Match.Matches(v.Packet) {
					switch c.Mode {
					case core.Isolate:
						desired = false
					case core.Open:
						desired = true
					}
					break
				}
			}
			if desired == pathPermits(after, p, v.Packet) {
				return fmt.Sprintf("witness %v does not flip path %s", v.Packet, p.Key())
			}
		}
	}
	return ""
}

// TestFuzzBackendThreeWay is the backend agreement lane. For every random
// case the check (run at Workers=4, which check ignores) must report
// exactly the violating FECs of the per-path SAT reference, which decides
// each FEC on a solver of its own from the sequential encoding of its
// paths' ACLs and shares neither shapes nor the tournament encoding with
// the engine (refAgrees). So must the same check at a budget of two
// cubes, where most violating FECs split, with the same SolvedFECs. The
// third way, the monolithic baseline, must agree on the verdict, and every
// counterexample of both checks is replayed concretely (replayWitnesses):
// a witness that fails replay means the check found a "violation" no real
// packet exhibits. The last cases each carry one random control.
func TestFuzzBackendThreeWay(t *testing.T) {
	cases, controlled := 160, 40
	if testing.Short() {
		cases, controlled = 25, 8
	}
	r := rand.New(rand.NewSource(9351))
	inconsistent, inconsistentCtrl := 0, 0
	var psetDecided, split int64
	var refTime, psetTime time.Duration
	for iter := 0; iter < cases+controlled; iter++ {
		before, scope, nPref := fuzzNet(r, true)
		after := before.Clone()
		fuzzEdit(r, after, nPref, true)
		var ctrls []core.Control
		if iter >= cases {
			ctrls = []core.Control{fuzzControl(r, before, nPref)}
		}
		opts := core.DefaultOptions()
		opts.FindAllViolations = iter%2 == 0
		opts.UseDifferential = iter%3 != 0
		engine := func() *core.Engine {
			e := core.New(before, after, scope, opts)
			e.Controls = ctrls
			return e
		}

		start := time.Now()
		ref := core.RefViolatingClasses(engine())
		refTime += time.Since(start)
		if len(ref) > 0 {
			inconsistent++
			if ctrls != nil {
				inconsistentCtrl++
			}
		}

		start = time.Now()
		resAuto := checkWorkers(engine(), 4)
		psetTime += time.Since(start)
		psetDecided += resAuto.Stats.PsetDecided
		if d := refAgrees(resAuto, ref, opts.FindAllViolations); d != "" {
			t.Fatalf("case %d: %s", iter, d)
		}
		restore := core.SetCubeBudget(t, 2)
		resSplit := checkWorkers(engine(), 4)
		restore()
		split += resSplit.Stats.PsetBailout
		if d := refAgrees(resSplit, ref, opts.FindAllViolations); d != "" {
			t.Fatalf("case %d at 2 cubes: %s", iter, d)
		}
		if resSplit.SolvedFECs != resAuto.SolvedFECs {
			t.Fatalf("case %d: SolvedFECs=%d at 2 cubes, %d at the default budget", iter, resSplit.SolvedFECs, resAuto.SolvedFECs)
		}

		if res := engine().CheckMonolithic(); res.Consistent != resAuto.Consistent {
			t.Fatalf("case %d: CheckMonolithic=%v, Check=%v", iter, res.Consistent, resAuto.Consistent)
		}
		for _, res := range []*core.CheckResult{resAuto, resSplit} {
			if d := replayWitnesses(res, before, after, ctrls); d != "" {
				t.Fatalf("case %d: %s", iter, d)
			}
		}
	}
	if inconsistent == 0 {
		t.Fatal("fuzz generator produced no inconsistent case; edits too weak to exercise violations")
	}
	if inconsistentCtrl == 0 {
		t.Fatal("no controlled case was inconsistent; the controlled witnesses went unreplayed")
	}
	if psetDecided == 0 || split == 0 {
		t.Fatalf("%d FECs decided whole, %d split at 2 cubes: the lane compares nothing", psetDecided, split)
	}
	t.Logf("%d cases (%d controlled), %d inconsistent (%d controlled); %d FECs decided whole (%v), %d split at 2 cubes; SAT reference %v",
		cases+controlled, controlled, inconsistent, inconsistentCtrl, psetDecided, psetTime, split, refTime)
}

// fuzzControl draws one control over a fuzzNet network: a random mode,
// a destination from the network's prefix pool, and one entry → exit
// border pair.
func fuzzControl(r *rand.Rand, n *topo.Network, nPref int) core.Control {
	var entries, exits []*topo.Interface
	for _, d := range n.SortedDevices() {
		for _, i := range d.SortedInterfaces() {
			switch i.Name {
			case "e":
				entries = append(entries, i)
			case "x":
				exits = append(exits, i)
			}
		}
	}
	return core.Control{
		From:  core.NewIfaceSet(entries[r.Intn(len(entries))]),
		To:    core.NewIfaceSet(exits[r.Intn(len(exits))]),
		Mode:  core.ControlMode(r.Intn(3)),
		Match: header.DstMatch(fuzzPrefix(r.Intn(nPref))),
	}
}

// TestFuzzFirstViolationAgreement covers the FindAllViolations=false
// path: at every worker count, which check ignores, the first violating
// FEC (and its counterexample) must match the one-worker scan.
func TestFuzzFirstViolationAgreement(t *testing.T) {
	cases := 80
	if testing.Short() {
		cases = 12
	}
	r := rand.New(rand.NewSource(4104))
	for iter := 0; iter < cases; iter++ {
		before, scope, nPref := fuzzNet(r, true)
		after := before.Clone()
		fuzzEdit(r, after, nPref, true)

		opts := core.DefaultOptions()
		opts.FindAllViolations = false
		opts.UseDifferential = iter%2 == 0

		seq := core.New(before, after, scope, opts).Check()
		want := checkSignature(seq)
		for _, workers := range []int{2, 8} {
			par := checkWorkers(core.New(before, after, scope, opts), workers)
			if got := checkSignature(par); got != want {
				t.Fatalf("case %d: first-violation Check at Workers=%d diverged\nseq:\n%s\npar:\n%s",
					iter, workers, want, got)
			}
			if par.SolvedFECs != seq.SolvedFECs {
				t.Fatalf("case %d: Check at Workers=%d SolvedFECs=%d, sequential=%d",
					iter, workers, par.SolvedFECs, seq.SolvedFECs)
			}
		}
	}
}

// TestFixParallelMatchesSequential is the fix property test: on random
// failure injections, the sequential and parallel fix paths must both
// verify, and their fixing plans must be semantically equivalent — the
// two fixed snapshots decide identically on every FEC (checked by
// running the consistency check between them). Fix must also be
// idempotent: re-fixing a fixed snapshot is a verified no-op. Each
// injection runs twice: at the default cube budget, and at a budget of
// two cubes, where fix seeks in the union of split flip regions.
func TestFixParallelMatchesSequential(t *testing.T) {
	iters := 14
	if testing.Short() {
		iters = 4
	}
	r := rand.New(rand.NewSource(77))
	fixedCount := 0
	for iter := 0; iter < iters; iter++ {
		before, after := perturbFigure1(r, 1+r.Intn(3))
		mk := func(workers int) *core.Engine {
			opts := core.DefaultOptions()
			opts.Workers = workers
			e := core.New(before, after, papernet.Scope(), opts)
			for _, d := range before.SortedDevices() {
				for _, i := range d.SortedInterfaces() {
					e.Allow = append(e.Allow,
						topo.ACLBinding{Iface: i, Dir: topo.In},
						topo.ACLBinding{Iface: i, Dir: topo.Out})
				}
			}
			return e
		}
		if mk(1).Check().Consistent {
			continue
		}
		fixedCount++
		for _, split := range []bool{false, true} {
			restore := func() {}
			if split {
				restore = core.SetCubeBudget(t, 2)
			}
			sres, err := mk(1).Fix()
			if err != nil {
				t.Fatal(err)
			}
			pres, err := mk(4).Fix()
			if err != nil {
				t.Fatal(err)
			}
			if !sres.Verified || !pres.Verified {
				t.Fatalf("iter %d: verified seq=%v par=%v", iter, sres.Verified, pres.Verified)
			}
			if len(sres.Unfixable) != 0 || len(pres.Unfixable) != 0 {
				t.Fatalf("iter %d: unfixable seq=%v par=%v", iter, sres.Unfixable, pres.Unfixable)
			}
			if len(sres.Neighborhoods) != len(pres.Neighborhoods) {
				t.Fatalf("iter %d: neighborhood count seq=%d par=%d",
					iter, len(sres.Neighborhoods), len(pres.Neighborhoods))
			}
			// Exact plan equality: both paths solve each FEC with the same
			// pure per-FEC function and merge in FEC order, so the plans are
			// identical action for action — the guarantee the CLI golden test
			// observes end to end.
			if len(sres.Actions) != len(pres.Actions) {
				t.Fatalf("iter %d: action count seq=%d par=%d",
					iter, len(sres.Actions), len(pres.Actions))
			}
			for i := range sres.Actions {
				if sres.Actions[i].String() != pres.Actions[i].String() {
					t.Fatalf("iter %d: action %d differs: seq=%v par=%v",
						iter, i, sres.Actions[i], pres.Actions[i])
				}
			}
			// Semantic equivalence: the two fixed snapshots are reachability-
			// consistent with each other (per-FEC decision-equal).
			eq := core.New(sres.Fixed, pres.Fixed, papernet.Scope(), core.DefaultOptions())
			if res := eq.Check(); !res.Consistent {
				t.Fatalf("iter %d: sequential and parallel fixed snapshots diverge: %v",
					iter, res.Violations)
			}

			// Idempotence: the fixed snapshot needs no further fixing.
			for _, res := range []*core.FixResult{sres, pres} {
				reOpts := core.DefaultOptions()
				re := core.New(before, res.Fixed, papernet.Scope(), reOpts)
				rres, err := re.Fix()
				if err != nil {
					t.Fatal(err)
				}
				if len(rres.Actions) != 0 || len(rres.Neighborhoods) != 0 || !rres.Verified {
					t.Fatalf("iter %d: re-fix not a no-op: actions=%v neighborhoods=%v verified=%v",
						iter, rres.Actions, rres.Neighborhoods, rres.Verified)
				}
			}
			restore()
		}
	}
	if fixedCount == 0 {
		t.Fatal("failure injection never produced an inconsistency")
	}
}

// TestFuzzFixOnRandomNetworks runs the fix equivalence property on the
// random fuzz networks too (with every binding allowed): whenever both
// paths fix, the results must be semantically equal.
func TestFuzzFixOnRandomNetworks(t *testing.T) {
	cases := 40
	if testing.Short() {
		cases = 6
	}
	r := rand.New(rand.NewSource(271828))
	compared := 0
	for iter := 0; iter < cases; iter++ {
		before, scope, nPref := fuzzNet(r, false)
		after := before.Clone()
		fuzzEdit(r, after, nPref, false)

		mk := func(workers int) *core.Engine {
			opts := core.DefaultOptions()
			opts.Workers = workers
			e := core.New(before, after, scope, opts)
			for _, d := range before.SortedDevices() {
				for _, i := range d.SortedInterfaces() {
					e.Allow = append(e.Allow,
						topo.ACLBinding{Iface: i, Dir: topo.In},
						topo.ACLBinding{Iface: i, Dir: topo.Out})
				}
			}
			return e
		}
		if mk(1).Check().Consistent {
			continue
		}
		sres, err := mk(1).Fix()
		if err != nil {
			t.Fatal(err)
		}
		pres, err := mk(4).Fix()
		if err != nil {
			t.Fatal(err)
		}
		if sres.Verified != pres.Verified {
			t.Fatalf("case %d: verified seq=%v par=%v", iter, sres.Verified, pres.Verified)
		}
		if !sres.Verified {
			continue // honestly unfixable under the allow set; both agreed
		}
		compared++
		eq := core.New(sres.Fixed, pres.Fixed, scope, core.DefaultOptions())
		if res := eq.Check(); !res.Consistent {
			t.Fatalf("case %d: fixed snapshots diverge: %v", iter, res.Violations)
		}
	}
	if compared == 0 {
		t.Fatal("no random-network fix instance verified; generator too restrictive")
	}
}

// TestFuzzIncrementalEditSequences is the incremental-verification fuzz
// lane: random networks undergo random edit sequences, and at every
// step a warm engine (shared VerdictCache, UpdateAfter per edit) must
// agree with a fresh-engine cold check — verdict, violation signatures,
// counterexamples, and SolvedFECs — at one worker and at four, which
// check ignores. Divergence means a stale replay: a cache key that
// failed to capture something the verdict depends on.
func TestFuzzIncrementalEditSequences(t *testing.T) {
	cases, steps := 45, 4
	if testing.Short() {
		cases = 8
	}
	r := rand.New(rand.NewSource(60221023))
	var totalHits, totalReplayedSteps int64
	for iter := 0; iter < cases; iter++ {
		before, scope, nPref := fuzzNet(r, true)

		warmOpts := core.DefaultOptions()
		warmOpts.FindAllViolations = iter%2 == 0
		warmOpts.UseDifferential = iter%3 != 0
		coldOpts := warmOpts
		warmOpts.Verdicts = core.NewVerdictCache()
		parOpts := warmOpts
		parOpts.Verdicts = core.NewVerdictCache()

		warmSeq := core.New(before, before.Clone(), scope, warmOpts)
		warmPar := core.New(before, before.Clone(), scope, parOpts)
		warmSeq.Check()
		checkWorkers(warmPar, 4)

		cur := before
		for step := 0; step < steps; step++ {
			next := cur.Clone()
			fuzzEdit(r, next, nPref, true)
			cur = next

			cold := core.New(before, cur, scope, coldOpts).Check()
			want := checkSignature(cold)

			warmSeq.UpdateAfter(cur)
			seq := warmSeq.Check()
			if got := checkSignature(seq); got != want {
				t.Fatalf("case %d step %d: warm sequential diverged\nwarm:\n%s\ncold:\n%s",
					iter, step, got, want)
			}
			if seq.SolvedFECs != cold.SolvedFECs {
				t.Fatalf("case %d step %d: warm SolvedFECs=%d, cold=%d",
					iter, step, seq.SolvedFECs, cold.SolvedFECs)
			}

			warmPar.UpdateAfter(cur)
			par := checkWorkers(warmPar, 4)
			if got := checkSignature(par); got != want {
				t.Fatalf("case %d step %d: warm parallel diverged\nwarm:\n%s\ncold:\n%s",
					iter, step, got, want)
			}
			if par.SolvedFECs != cold.SolvedFECs {
				t.Fatalf("case %d step %d: warm parallel SolvedFECs=%d, cold=%d",
					iter, step, par.SolvedFECs, cold.SolvedFECs)
			}

			totalHits += seq.Stats.FECCacheHits + par.Stats.FECCacheHits
			if seq.Stats.FECCacheHits > 0 {
				totalReplayedSteps++
			}
		}
	}
	if totalHits == 0 {
		t.Fatal("no warm step ever replayed a verdict; the cache is dead weight")
	}
	t.Logf("%d cases x %d steps: %d replayed verdicts, %d steps with replays",
		cases, steps, totalHits, totalReplayedSteps)
}

// FuzzBackendAgreement is the open-ended three-way lane behind `make
// fuzz-backends`: each fuzz input seeds the random network and edit
// generators plus the option toggles, and the case asserts what
// TestFuzzBackendThreeWay pins on its fixed corpus — the check (at
// Workers=4) reports exactly the per-path SAT reference's violating FECs
// at the default cube budget and at two cubes, the monolithic baseline
// agrees on the verdict, and every reported witness flips each of its
// paths across the update.
func FuzzBackendAgreement(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed%6))
	}
	f.Fuzz(func(t *testing.T, seed int64, mode uint8) {
		r := rand.New(rand.NewSource(seed))
		before, scope, nPref := fuzzNet(r, true)
		after := before.Clone()
		fuzzEdit(r, after, nPref, true)

		opts := core.DefaultOptions()
		opts.FindAllViolations = mode&1 == 0
		opts.UseDifferential = mode&2 == 0

		ref := core.RefViolatingClasses(core.New(before, after, scope, opts))
		resAuto := checkWorkers(core.New(before, after, scope, opts), 4)
		restore := core.SetCubeBudget(t, 2)
		resSplit := checkWorkers(core.New(before, after, scope, opts), 4)
		restore()
		for arm, res := range map[string]*core.CheckResult{"default budget": resAuto, "2 cubes": resSplit} {
			if d := refAgrees(res, ref, opts.FindAllViolations); d != "" {
				t.Fatalf("%s: %s", arm, d)
			}
			if d := replayWitnesses(res, before, after, nil); d != "" {
				t.Fatalf("%s: %s", arm, d)
			}
		}

		mono := core.New(before, after, scope, opts).CheckMonolithic()
		if mono.Consistent != resAuto.Consistent {
			t.Fatalf("CheckMonolithic=%v, Check=%v", mono.Consistent, resAuto.Consistent)
		}
	})
}
