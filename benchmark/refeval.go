package main

// A packet-level reference evaluator in the denotational style: a packet
// enters at an interface, is filtered by first-match ACL evaluation,
// forwarded hop by hop by longest-prefix match, and leaves. It reads
// the topo/acl/header data structures field by field and calls none of
// their decision methods, so it shares no code with the engine it
// judges: no FECs, no formulas, no caches, no LPM trie.

import (
	"fmt"
	"strings"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/topo"
)

func refPrefixHas(p header.Prefix, addr uint32) bool {
	if p.Len == 0 {
		return true
	}
	return (addr^p.Addr)>>(32-uint(p.Len)) == 0
}

func refMatches(m header.Match, h header.Packet) bool {
	return refPrefixHas(m.Src, h.SrcIP) && refPrefixHas(m.Dst, h.DstIP) &&
		m.SrcPort.Lo <= h.SrcPort && h.SrcPort <= m.SrcPort.Hi &&
		m.DstPort.Lo <= h.DstPort && h.DstPort <= m.DstPort.Hi &&
		m.Proto.Lo <= h.Proto && h.Proto <= m.Proto.Hi
}

// refPermits is first-match evaluation; an unbound ACL permits.
func refPermits(a *acl.ACL, h header.Packet) bool {
	if a == nil {
		return true
	}
	for _, r := range a.Rules {
		if refMatches(r.Match, h) {
			return r.Action == acl.Permit
		}
	}
	return a.Default == acl.Permit
}

// refNextHops is longest-prefix match by linear scan: the out
// interfaces of every route of the longest matching length (ECMP).
func refNextHops(d *topo.Device, dst uint32) []*topo.Interface {
	best := -1
	var outs []*topo.Interface
	for _, e := range d.FIB {
		if !refPrefixHas(e.Prefix, dst) {
			continue
		}
		switch {
		case e.Prefix.Len > best:
			best, outs = e.Prefix.Len, []*topo.Interface{e.Out}
		case e.Prefix.Len == best:
			outs = append(outs, e.Out)
		}
	}
	return outs
}

// refPath is a walk through the network: alternating ingress and egress
// interface IDs, as the CLI prints paths.
type refPath []string

func parseRefPath(s string) (refPath, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "<") || !strings.HasSuffix(s, ">") {
		return nil, fmt.Errorf("path %q is not <a, b, ...>", s)
	}
	p := refPath(strings.Split(s[1:len(s)-1], ", "))
	if len(p) == 0 || len(p)%2 != 0 {
		return nil, fmt.Errorf("path %q has an odd number of interfaces", s)
	}
	return p, nil
}

// refDecide walks packet h along path p in network n. forwards reports
// whether the forwarding tables and links really take h that way;
// permits is the conjunction of every on-path ACL decision.
func refDecide(n *topo.Network, p refPath, h header.Packet) (permits, forwards bool, err error) {
	permits, forwards = true, true
	for k := 0; k < len(p); k += 2 {
		in, err := n.LookupInterface(p[k])
		if err != nil {
			return false, false, err
		}
		out, err := n.LookupInterface(p[k+1])
		if err != nil {
			return false, false, err
		}
		if in.Device != out.Device {
			return false, false, fmt.Errorf("hop %s -> %s crosses devices", p[k], p[k+1])
		}
		taken := false
		for _, o := range refNextHops(in.Device, h.DstIP) {
			taken = taken || o == out
		}
		if !taken {
			forwards = false
		}
		if k+2 < len(p) {
			if peer := n.Peer(out); peer == nil || peer.ID() != p[k+2] {
				forwards = false
			}
		}
		if !refPermits(in.ACLs[topo.In], h) || !refPermits(out.ACLs[topo.Out], h) {
			permits = false
		}
	}
	return permits, forwards, nil
}

// refWalks enumerates every path packet h takes from entry interface
// `from` until it leaves the network (an egress interface without a
// link) or is dropped for lack of a route. ECMP branches all count.
func refWalks(n *topo.Network, from *topo.Interface, h header.Packet) []refPath {
	var out []refPath
	var walk func(in *topo.Interface, sofar refPath, seen map[*topo.Device]bool)
	walk = func(in *topo.Interface, sofar refPath, seen map[*topo.Device]bool) {
		if seen[in.Device] {
			return // forwarding loop: no path leaves
		}
		seen[in.Device] = true
		defer delete(seen, in.Device)
		for _, o := range refNextHops(in.Device, h.DstIP) {
			if o == in {
				continue
			}
			next := append(append(refPath(nil), sofar...), in.ID(), o.ID())
			if peer := n.Peer(o); peer != nil {
				walk(peer, next, seen)
			} else {
				out = append(out, next)
			}
		}
	}
	walk(from, nil, map[*topo.Device]bool{})
	return out
}

// refControl is a reachability intent as the reference reads it.
type refControl struct {
	from, to map[string]bool
	open     bool // open (permit) or isolate (deny)
	match    header.Match
}

// refDesired is the decision the update must produce for h on p: the
// pre-update decision, unless the first applicable control overrides it.
func refDesired(before *topo.Network, ctrls []refControl, p refPath, h header.Packet) (bool, error) {
	for _, c := range ctrls {
		if c.from[p[0]] && c.to[p[len(p)-1]] && refMatches(c.match, h) {
			return c.open, nil
		}
	}
	permits, _, err := refDecide(before, p, h)
	return permits, err
}
