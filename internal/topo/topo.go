// Package topo models the network Jinjing operates on: devices with
// named interfaces, ingress/egress ACL bindings, directed links,
// per-device forwarding tables (the g_{i,j} forwarding models of §4.1),
// management scopes Ω with border interfaces, structural path
// enumeration over the routing DAG, and forwarding equivalence classes.
package topo

import (
	"fmt"
	"sort"
	"strings"

	"jinjing/internal/acl"
	"jinjing/internal/header"
)

// Direction distinguishes the two ACL attachment points of an interface
// (§2.1: "ACLs can be applied to both ingress and egress interfaces").
type Direction int

// The two ACL directions.
const (
	In Direction = iota
	Out
)

// String renders the direction as "in"/"out".
func (d Direction) String() string {
	if d == In {
		return "in"
	}
	return "out"
}

// Interface is one interface of a device. Either direction may carry an
// ACL; a nil ACL permits everything (the implicit permit-all of an
// unconfigured interface).
type Interface struct {
	Device *Device
	Name   string
	ACLs   [2]*acl.ACL // indexed by Direction; nil = no ACL
	ord    int32       // see Ord
}

// Ord returns the interface's ordinal, dense from 0 below its network's
// NumInterfaces. It follows creation order, which may follow map
// iteration (Clone): nothing observable may depend on it.
func (i *Interface) Ord() int { return int(i.ord) }

// ID returns the "device:interface" form used by LAI.
func (i *Interface) ID() string { return i.Device.Name + ":" + i.Name }

// ACL returns the ACL bound in the given direction, or nil.
func (i *Interface) ACL(d Direction) *acl.ACL { return i.ACLs[d] }

// SetACL binds an ACL in the given direction (nil clears it).
func (i *Interface) SetACL(d Direction, a *acl.ACL) { i.ACLs[d] = a }

// Permits reports the decision of the interface's ACL in direction d on
// packet p; an unbound direction permits.
func (i *Interface) Permits(d Direction, p header.Packet) bool {
	if i.ACLs[d] == nil {
		return true
	}
	return i.ACLs[d].Permits(p)
}

// FIBEntry is one forwarding entry: destinations under Prefix leave the
// device through Out.
type FIBEntry struct {
	Prefix header.Prefix
	Out    *Interface
}

// Device is a router: a set of named interfaces plus a destination-based
// forwarding table.
type Device struct {
	Name       string
	Interfaces map[string]*Interface
	FIB        []FIBEntry

	net *Network // numbers the device's interfaces
	lpm *lpmNode // lazily built LPM trie over FIB
}

// Network returns the network the device belongs to.
func (d *Device) Network() *Network { return d.net }

// lpmNode is one node of the binary LPM trie. outs holds the ECMP set of
// entries whose prefix ends exactly here; subtree counts all entries in
// this subtree, so atomicity checks are O(1).
type lpmNode struct {
	children [2]*lpmNode
	outs     []*Interface
	subtree  int
}

func (d *Device) lpmTrie() *lpmNode {
	if d.lpm != nil {
		return d.lpm
	}
	root := &lpmNode{}
	for _, e := range d.FIB {
		n := root
		n.subtree++
		for i := 0; i < e.Prefix.Len; i++ {
			bit := e.Prefix.Addr >> (31 - i) & 1
			if n.children[bit] == nil {
				n.children[bit] = &lpmNode{}
			}
			n = n.children[bit]
			n.subtree++
		}
		n.outs = append(n.outs, e.Out)
	}
	d.lpm = root
	return root
}

// Interface returns the named interface, creating it on first use.
func (d *Device) Interface(name string) *Interface {
	if i, ok := d.Interfaces[name]; ok {
		return i
	}
	i := &Interface{Device: d, Name: name, ord: d.net.ifaces}
	d.net.ifaces++
	d.Interfaces[name] = i
	return i
}

// AddRoute appends a forwarding entry.
func (d *Device) AddRoute(p header.Prefix, out *Interface) {
	if out.Device != d {
		panic(fmt.Sprintf("topo: route on %s via foreign interface %s", d.Name, out.ID()))
	}
	d.FIB = append(d.FIB, FIBEntry{Prefix: p, Out: out})
	d.lpm = nil // rebuilt on the next lookup
}

// LongestMatch returns the out-interfaces selected by longest-prefix
// match for destination addr (several under ECMP), or nil when the
// device has no route.
func (d *Device) LongestMatch(addr uint32) []*Interface {
	return d.LongestMatchClass(header.Prefix{Addr: addr, Len: 32}) // a /32 is always atomic
}

// LongestMatchClass returns the LPM result for an entire destination
// prefix class. The class must be atomic with respect to the device's
// FIB (contained in or disjoint from every entry prefix); LongestMatchClass
// panics otherwise, because a non-atomic class has no uniform forwarding
// behavior.
func (d *Device) LongestMatchClass(class header.Prefix) []*Interface {
	n := d.lpmTrie()
	var outs []*Interface
	for i := 0; ; i++ {
		if len(n.outs) > 0 {
			outs = n.outs
		}
		if i == class.Len {
			break
		}
		n = n.children[class.Addr>>(31-i)&1]
		if n == nil {
			break
		}
	}
	// Entries strictly below the class node would split its forwarding.
	// (n is nil when the walk stopped at a missing child, which means no
	// entries lie below the class — always atomic.)
	if n != nil && n.subtree > len(n.outs) {
		panic(fmt.Sprintf("topo: class %v not atomic wrt FIB on %s", class, d.Name))
	}
	return outs
}

// Network is the full modeled network.
type Network struct {
	Devices map[string]*Device

	links map[*Interface]*Interface // directed: egress interface -> peer ingress interface
	rev   map[*Interface]*Interface // ingress -> egress peer
	// ifaces is the next interface ordinal. Devices count through their
	// net pointer, so a Network with devices must not be copied by value.
	ifaces int32
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{
		Devices: make(map[string]*Device),
		links:   make(map[*Interface]*Interface),
		rev:     make(map[*Interface]*Interface),
	}
}

// Device returns the named device, creating it on first use.
func (n *Network) Device(name string) *Device {
	if d, ok := n.Devices[name]; ok {
		return d
	}
	d := &Device{Name: name, Interfaces: make(map[string]*Interface), net: n}
	n.Devices[name] = d
	return d
}

// NumInterfaces bounds the network's interface ordinals.
func (n *Network) NumInterfaces() int { return int(n.ifaces) }

// AddLink records a directed link: traffic leaving from (an egress
// interface) arrives at to (an ingress interface of another device).
// Physical bidirectional cables are modeled as two AddLink calls.
func (n *Network) AddLink(from, to *Interface) {
	if from.Device == to.Device {
		panic("topo: link endpoints on the same device")
	}
	if peer, ok := n.links[from]; ok && peer != to {
		panic(fmt.Sprintf("topo: interface %s already linked to %s", from.ID(), peer.ID()))
	}
	n.links[from] = to
	n.rev[to] = from
}

// Peer returns the ingress interface reached from egress interface i, or
// nil when i has no outgoing link (a network edge).
func (n *Network) Peer(i *Interface) *Interface { return n.links[i] }

// Upstream returns the egress interface feeding ingress interface i, or
// nil at a network edge.
func (n *Network) Upstream(i *Interface) *Interface { return n.rev[i] }

// LookupInterface resolves a "device:interface" ID.
func (n *Network) LookupInterface(id string) (*Interface, error) {
	parts := strings.SplitN(id, ":", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("topo: interface ID %q is not device:interface", id)
	}
	d, ok := n.Devices[parts[0]]
	if !ok {
		return nil, fmt.Errorf("topo: unknown device %q", parts[0])
	}
	i, ok := d.Interfaces[parts[1]]
	if !ok {
		return nil, fmt.Errorf("topo: unknown interface %q on device %q", parts[1], parts[0])
	}
	return i, nil
}

// Clone deep-copies the network, including ACLs, FIBs, and links. The
// engine uses this to build the post-update snapshot L'_Ω without
// mutating the original.
func (n *Network) Clone() *Network {
	out := NewNetwork()
	to := make([]*Interface, n.ifaces) // each interface's copy, by ordinal
	for name, d := range n.Devices {
		nd := out.Device(name)
		for iname, i := range d.Interfaces {
			ni := nd.Interface(iname)
			to[i.ord] = ni
			for dir, a := range i.ACLs {
				if a != nil {
					ni.ACLs[dir] = a.Clone()
				}
			}
		}
		nd.FIB = make([]FIBEntry, len(d.FIB))
		for k, e := range d.FIB {
			nd.FIB[k] = FIBEntry{Prefix: e.Prefix, Out: to[e.Out.ord]}
		}
	}
	for from, peer := range n.links {
		out.AddLink(to[from.ord], to[peer.ord])
	}
	return out
}

// SortedDevices returns the devices ordered by name for deterministic
// iteration.
func (n *Network) SortedDevices() []*Device {
	names := make([]string, 0, len(n.Devices))
	for name := range n.Devices {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Device, len(names))
	for i, name := range names {
		out[i] = n.Devices[name]
	}
	return out
}

// SortedInterfaces returns a device's interfaces ordered by name.
func (d *Device) SortedInterfaces() []*Interface {
	names := make([]string, 0, len(d.Interfaces))
	for name := range d.Interfaces {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Interface, len(names))
	for i, name := range names {
		out[i] = d.Interfaces[name]
	}
	return out
}

// Scope is a management scope Ω: a set of devices under update,
// identified by name so a Scope is portable across Clone()d snapshots.
// Optionally the scope restricts which border interfaces admit entering
// traffic (the paper's running example only considers traffic entering at
// A1; with destination-based routing, unrestricted scopes also enumerate
// paths entering at every other border interface).
type Scope struct {
	devices map[string]bool
	entries map[string]bool // border interface IDs; nil = all borders
}

// NewScope builds a scope over the named devices.
func NewScope(deviceNames ...string) *Scope {
	s := &Scope{devices: make(map[string]bool, len(deviceNames))}
	for _, d := range deviceNames {
		s.devices[d] = true
	}
	return s
}

// WithEntries restricts traffic entry to the given border interface IDs
// ("device:interface") and returns the scope for chaining.
func (s *Scope) WithEntries(ifaceIDs ...string) *Scope {
	s.entries = make(map[string]bool, len(ifaceIDs))
	for _, id := range ifaceIDs {
		s.entries[id] = true
	}
	return s
}

// AllowsEntry reports whether traffic may enter the scope at the given
// border interface.
func (s *Scope) AllowsEntry(ifaceID string) bool {
	return s.entries == nil || s.entries[ifaceID]
}

// ContainsDevice reports whether the named device is inside Ω.
func (s *Scope) ContainsDevice(name string) bool { return s.devices[name] }

// DeviceNames returns the sorted device names in Ω.
func (s *Scope) DeviceNames() []string {
	out := make([]string, 0, len(s.devices))
	for d := range s.devices {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// BorderInterfaces returns the interfaces of in-scope devices that
// exchange traffic with the outside (§3.3): an interface is border when
// its link peers with an out-of-scope device, or when it has no link at
// all (a network edge where external traffic enters/leaves).
func (n *Network) BorderInterfaces(s *Scope) []*Interface {
	var out []*Interface
	for _, name := range s.DeviceNames() {
		d, ok := n.Devices[name]
		if !ok {
			continue
		}
		for _, i := range d.SortedInterfaces() {
			peerOut := n.links[i]
			peerIn := n.rev[i]
			external := false
			if peerOut == nil && peerIn == nil {
				external = true // dangling edge interface
			}
			if peerOut != nil && !s.ContainsDevice(peerOut.Device.Name) {
				external = true
			}
			if peerIn != nil && !s.ContainsDevice(peerIn.Device.Name) {
				external = true
			}
			if external {
				out = append(out, i)
			}
		}
	}
	return out
}

// InScopeACLGroup returns the ACL group L_Ω: every (interface, direction)
// pair inside Ω carrying an ACL, in deterministic order.
type ACLBinding struct {
	Iface *Interface
	Dir   Direction
}

// ACLGroup collects the ACL bindings of all in-scope devices (the L_Ω of
// Table 2).
func (n *Network) ACLGroup(s *Scope) []ACLBinding {
	var out []ACLBinding
	for _, name := range s.DeviceNames() {
		d, ok := n.Devices[name]
		if !ok {
			continue
		}
		for _, i := range d.SortedInterfaces() {
			for _, dir := range []Direction{In, Out} {
				if i.ACLs[dir] != nil {
					out = append(out, ACLBinding{Iface: i, Dir: dir})
				}
			}
		}
	}
	return out
}

// BindingID identifies an ACL binding as "device:interface:dir".
func (b ACLBinding) ID() string { return b.Iface.ID() + ":" + b.Dir.String() }
