package main

import (
	"fmt"
	"math/rand"
	"strings"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/topo"
)

// report is a jinjing report (CLI stdout or a daemon response's
// "report" field) parsed back into data.
type report struct {
	checks []checkReport
	fix    *fixReport
	gen    *genReport
}

type checkReport struct {
	verdict   string // consistent | INCONSISTENT | UNDECIDED
	witnesses []witness
}

type witness struct {
	packet header.Packet
	paths  []refPath
}

type fixReport struct {
	verified bool
	actions  []planRule
}

type planRule struct {
	binding string // device:interface:dir
	rule    acl.Rule
}

type genReport struct {
	verified bool
	acls     map[string]*acl.ACL // binding -> synthesized ACL
}

func parsePacket(s string) (header.Packet, error) {
	var sa, da [4]uint32
	var sp, dp uint16
	var proto uint8
	_, err := fmt.Sscanf(s, "%d.%d.%d.%d:%d -> %d.%d.%d.%d:%d proto %d",
		&sa[0], &sa[1], &sa[2], &sa[3], &sp, &da[0], &da[1], &da[2], &da[3], &dp, &proto)
	if err != nil {
		return header.Packet{}, fmt.Errorf("packet %q: %v", s, err)
	}
	ip := func(o [4]uint32) uint32 { return o[0]<<24 | o[1]<<16 | o[2]<<8 | o[3] }
	return header.Packet{SrcIP: ip(sa), DstIP: ip(da), SrcPort: sp, DstPort: dp, Proto: proto}, nil
}

func parseRule(s string) (acl.Rule, error) {
	a, err := acl.Parse(s)
	switch {
	case err != nil:
		return acl.Rule{}, err
	case len(a.Rules) == 1:
		return a.Rules[0], nil
	case len(a.Rules) == 0: // "<action> all" parses as a default
		return acl.Rule{Action: a.Default, Match: header.MatchAll}, nil
	}
	return acl.Rule{}, fmt.Errorf("%q is not one rule", s)
}

func parseReport(text string) (*report, error) {
	rep := &report{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		body := strings.TrimLeft(line, " ")
		indent := len(line) - len(body)
		var err error
		switch {
		case indent == 0 && strings.HasPrefix(body, "check: "):
			rep.checks = append(rep.checks, checkReport{verdict: strings.Fields(body)[1]})
		case indent == 0 && strings.HasPrefix(body, "fix: "):
			rep.fix = &fixReport{verified: strings.HasSuffix(body, "verified=true")}
		case indent == 0 && strings.HasPrefix(body, "generate: "):
			rep.gen = &genReport{verified: strings.HasSuffix(body, "verified=true"), acls: map[string]*acl.ACL{}}
		case indent == 2 && strings.HasPrefix(body, "counterexample ") && len(rep.checks) > 0:
			c := &rep.checks[len(rep.checks)-1]
			var w witness
			w.packet, err = parsePacket(strings.TrimPrefix(body, "counterexample "))
			c.witnesses = append(c.witnesses, w)
		case indent == 4 && strings.HasPrefix(body, "decision changed on ") && len(rep.checks) > 0:
			c := &rep.checks[len(rep.checks)-1]
			if len(c.witnesses) == 0 {
				return nil, fmt.Errorf("path before any counterexample: %q", line)
			}
			var p refPath
			p, err = parseRefPath(strings.TrimPrefix(body, "decision changed on "))
			w := &c.witnesses[len(c.witnesses)-1]
			w.paths = append(w.paths, p)
		case indent == 2 && strings.HasPrefix(body, "add to ") && rep.fix != nil:
			rest := strings.TrimPrefix(body, "add to ")
			k := strings.Index(rest, ": ")
			if k < 0 {
				return nil, fmt.Errorf("malformed fix action %q", line)
			}
			var r acl.Rule
			r, err = parseRule(rest[k+2:])
			rep.fix.actions = append(rep.fix.actions, planRule{binding: rest[:k], rule: r})
		case indent == 2 && rep.gen != nil && rep.fix == nil && strings.Contains(body, ": "):
			k := strings.Index(body, ": ")
			var a *acl.ACL
			a, err = acl.Parse(body[k+2:])
			rep.gen.acls[body[:k]] = a
		default:
			return nil, fmt.Errorf("unexpected report line %q", line)
		}
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// binding resolves "device:interface:dir" in n.
func binding(n *topo.Network, id string) (*topo.Interface, topo.Direction, error) {
	dir := topo.In
	base := strings.TrimSuffix(id, ":in")
	if strings.HasSuffix(id, ":out") {
		dir, base = topo.Out, strings.TrimSuffix(id, ":out")
	}
	iface, err := n.LookupInterface(base)
	return iface, dir, err
}

// expectation is what the reference evaluator needs to judge reports of
// one input: the two snapshots, the intents, and where plans may land.
type expectation struct {
	before, after *topo.Network // after == nil: the program derives it (generate)
	controls      []refControl
	cleared       []string // bindings "modify ... to permit-all" clears (generate sources)
	samples       int
	seed          int64
}

func (in *inputs) expectation(samples int, seed int64) *expectation {
	x := &expectation{before: in.before, after: in.after, samples: samples, seed: seed}
	for _, c := range in.prog.Controls {
		rc := refControl{from: map[string]bool{}, to: map[string]bool{}, open: c.Mode.String() == "open", match: c.Match}
		for _, p := range c.From {
			rc.from[p.Device+":"+p.Iface] = true
		}
		for _, p := range c.To {
			rc.to[p.Device+":"+p.Iface] = true
		}
		x.controls = append(x.controls, rc)
	}
	if in.wl.Generate != "" {
		for _, m := range in.prog.Modifies {
			for _, p := range m.Targets {
				x.cleared = append(x.cleared, p.Device+":"+p.Iface+":in")
			}
		}
	}
	return x
}

// entries lists the interfaces where outside traffic enters: those with
// no cable at all.
func entries(n *topo.Network) []*topo.Interface {
	var out []*topo.Interface
	for _, d := range n.SortedDevices() {
		for _, i := range d.SortedInterfaces() {
			if n.Upstream(i) == nil && n.Peer(i) == nil {
				out = append(out, i)
			}
		}
	}
	return out
}

// cornerPacket draws a packet on a rule boundary: each field sits at the
// low or high end of a rule's match, or one step outside it, which is
// where two ACLs that differ at all are most likely to differ.
func cornerPacket(r *rand.Rand, rules []acl.Rule, pool []header.Prefix) header.Packet {
	m := rules[r.Intn(len(rules))].Match
	if m.Dst.Len == 0 { // unconstrained: aim at something routable
		m.Dst = pool[r.Intn(len(pool))]
	}
	addr := func(p header.Prefix) uint32 {
		span := uint32(1)<<(32-uint(p.Len)) - 1
		if p.Len == 0 {
			span = ^uint32(0)
		}
		switch r.Intn(4) {
		case 0:
			return p.Addr
		case 1:
			return p.Addr + span
		case 2:
			return p.Addr + span + 1 // just past the prefix
		default:
			return p.Addr + uint32(r.Int63n(int64(span)+1))
		}
	}
	port := func(pr header.PortRange) uint16 {
		switch r.Intn(4) {
		case 0:
			return pr.Lo
		case 1:
			return pr.Hi
		case 2:
			return pr.Hi + 1
		default:
			return pr.Lo - 1
		}
	}
	return header.Packet{
		SrcIP: addr(m.Src), DstIP: addr(m.Dst),
		SrcPort: port(m.SrcPort), DstPort: port(m.DstPort),
		Proto: []uint8{m.Proto.Lo, m.Proto.Hi, header.ProtoTCP, header.ProtoUDP}[r.Intn(4)],
	}
}

// aclSite is one ACL attachment point, by name, so that it can be looked
// up in either snapshot.
type aclSite struct {
	iface string
	dir   topo.Direction
}

func (s aclSite) rules(nets ...*topo.Network) []acl.Rule {
	var out []acl.Rule
	for _, n := range nets {
		if i, err := n.LookupInterface(s.iface); err == nil && i.ACLs[s.dir] != nil {
			out = append(out, i.ACLs[s.dir].Rules...)
		}
	}
	return out
}

// aclSites lists every attachment point that carries an ACL in either
// network, and those among them whose rule lists differ.
func aclSites(before, updated *topo.Network) (all, changed []aclSite) {
	for _, d := range before.SortedDevices() {
		for _, i := range d.SortedInterfaces() {
			for _, dir := range []topo.Direction{topo.In, topo.Out} {
				s := aclSite{i.ID(), dir}
				rb, ru := s.rules(before), s.rules(updated)
				if len(rb)+len(ru) == 0 {
					continue
				}
				all = append(all, s)
				same := len(rb) == len(ru)
				for k := 0; same && k < len(rb); k++ {
					same = rb[k] == ru[k]
				}
				if !same {
					changed = append(changed, s)
				}
			}
		}
	}
	return all, changed
}

// feeders collects the entry interfaces from which traffic can arrive at
// ingress interface in, looking at most depth devices upstream.
func feeders(n *topo.Network, in *topo.Interface, depth int, out *[]*topo.Interface) {
	up := n.Upstream(in)
	switch {
	case up == nil && n.Peer(in) == nil:
		*out = append(*out, in)
	case up != nil && depth > 0:
		for _, i := range up.Device.SortedInterfaces() {
			if i != up {
				feeders(n, i, depth-1, out)
			}
		}
	}
}

// equation3 checks the paper's Equation 3 on x.samples seeded (path,
// packet) pairs: on every path a packet really takes through the
// pre-update network, the updated network must decide as desired. Half
// the packets are drawn on the boundaries of rules the update changed
// and sent in where they will cross the changed ACL; the rest cover
// every ACL alike. It returns the first violation found, or "" when all
// samples agree.
func (x *expectation) equation3(updated *topo.Network, pool []header.Prefix) (string, error) {
	r := rand.New(rand.NewSource(x.seed))
	all, changed := aclSites(x.before, updated)
	if len(all) == 0 {
		return "", fmt.Errorf("no ACL rules to sample from")
	}
	ins := entries(x.before)
	for done, tries := 0, 0; done < x.samples && tries < 50*x.samples; tries++ {
		site := all[r.Intn(len(all))]
		if len(changed) > 0 && r.Intn(2) == 0 {
			site = changed[r.Intn(len(changed))]
		}
		rules := site.rules(x.before, updated)
		if len(rules) == 0 {
			continue
		}
		h := cornerPacket(r, rules, pool)
		var from []*topo.Interface
		if at, err := x.before.LookupInterface(site.iface); err == nil && site.dir == topo.In {
			feeders(x.before, at, 2, &from)
		}
		if len(from) == 0 {
			from = ins
		}
		for _, p := range refWalks(x.before, from[r.Intn(len(from))], h) {
			want, err := refDesired(x.before, x.controls, p, h)
			if err != nil {
				return "", err
			}
			got, _, err := refDecide(updated, p, h)
			if err != nil {
				return "", err
			}
			if got != want {
				return fmt.Sprintf("packet %v on %v: decided permit=%v, want %v", h, p, got, want), nil
			}
			done++
		}
	}
	return "", nil
}

// planned applies the report's plan and returns the network it claims
// is safe: the fix actions prepended to the update, or the generated
// ACLs installed with their sources cleared.
func (x *expectation) planned(rep *report) (*topo.Network, error) {
	switch {
	case rep.fix != nil:
		n := x.after.Clone()
		for _, a := range rep.fix.actions {
			iface, dir, err := binding(n, a.binding)
			if err != nil {
				return nil, err
			}
			cur := iface.ACLs[dir]
			if cur == nil {
				cur = &acl.ACL{Default: acl.Permit}
			}
			cur.Rules = append([]acl.Rule{a.rule}, cur.Rules...)
			iface.ACLs[dir] = cur
		}
		return n, nil
	case rep.gen != nil:
		n := x.before.Clone()
		for _, id := range x.cleared {
			iface, dir, err := binding(n, id)
			if err != nil {
				return nil, err
			}
			iface.ACLs[dir] = &acl.ACL{Default: acl.Permit}
		}
		for id, a := range rep.gen.acls {
			iface, dir, err := binding(n, id)
			if err != nil {
				return nil, err
			}
			iface.ACLs[dir] = a
		}
		return n, nil
	}
	return x.after, nil
}

// judge validates one report in full. It returns nil when every claim in
// it survives the reference evaluator.
func (x *expectation) judge(text string, pool []header.Prefix) error {
	rep, err := parseReport(text)
	if err != nil {
		return err
	}
	// Every counterexample must flip on every path it names, and each
	// named path must be one the packet really takes.
	for ci, c := range rep.checks {
		if c.verdict == "UNDECIDED" {
			return fmt.Errorf("check #%d is UNDECIDED", ci+1)
		}
		if (c.verdict == "INCONSISTENT") != (len(c.witnesses) > 0) {
			return fmt.Errorf("check #%d: verdict %s with %d counterexamples", ci+1, c.verdict, len(c.witnesses))
		}
		for _, w := range c.witnesses {
			if len(w.paths) == 0 {
				return fmt.Errorf("counterexample %v names no path", w.packet)
			}
			for _, p := range w.paths {
				want, err := refDesired(x.before, x.controls, p, w.packet)
				if err != nil {
					return err
				}
				got, forwards, err := refDecide(x.after, p, w.packet)
				if err != nil {
					return err
				}
				if !forwards {
					return fmt.Errorf("counterexample %v is not forwarded along %v", w.packet, p)
				}
				if got == want {
					return fmt.Errorf("counterexample %v does not change decision on %v", w.packet, p)
				}
			}
		}
	}
	if len(rep.checks) > 0 && rep.checks[0].verdict == "consistent" {
		// The first check judges the raw update; the reference must find
		// no disagreement either.
		if bad, err := x.equation3(x.after, pool); err != nil || bad != "" {
			return fmt.Errorf("check says consistent, reference disagrees: %s %v", bad, err)
		}
	}
	if rep.fix == nil && rep.gen == nil {
		return nil
	}
	if rep.fix != nil && !rep.fix.verified || rep.gen != nil && !rep.gen.verified {
		return fmt.Errorf("plan not verified")
	}
	updated, err := x.planned(rep)
	if err != nil {
		return err
	}
	if bad, err := x.equation3(updated, pool); err != nil || bad != "" {
		return fmt.Errorf("plan violates Equation 3: %s %v", bad, err)
	}
	// Every opened prefix must get from every interface its control names
	// to every interface it names, whatever else the packet carries.
	for _, c := range x.controls {
		if !c.open {
			continue
		}
		dst := c.match.Dst.Addr
		for from := range c.from {
			in, err := updated.LookupInterface(from)
			if err != nil {
				return err
			}
			for _, h := range []header.Packet{
				{DstIP: dst},
				{DstIP: dst + 255, SrcIP: 172<<24 | 17<<16, DstPort: 443, Proto: header.ProtoTCP},
				{DstIP: dst + 7, SrcIP: ^uint32(0), SrcPort: 65535, DstPort: 8080, Proto: 255},
			} {
				for _, p := range refWalks(updated, in, h) {
					if !c.to[p[len(p)-1]] {
						continue
					}
					if ok, _, _ := refDecide(updated, p, h); !ok {
						return fmt.Errorf("opened prefix %v: packet %v denied on %v", c.match.Dst, h, p)
					}
				}
			}
		}
	}
	return nil
}

// expectInconsistent reports whether the reference itself finds the
// update changing some decision — the verdict a correct check must
// reach on this input.
func (x *expectation) expectInconsistent(pool []header.Prefix) (bool, error) {
	bad, err := x.equation3(x.after, pool)
	return bad != "", err
}
