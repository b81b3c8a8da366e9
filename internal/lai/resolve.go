package lai

import (
	"fmt"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/topo"
)

// ResolvedControl is a control statement with its interface lists
// expanded against the network.
type ResolvedControl struct {
	From  []*topo.Interface
	To    []*topo.Interface
	Mode  ControlMode
	Match header.Match
}

// Resolved is an LAI program bound to a concrete network: every pattern
// expanded, every modify applied to a cloned post-update snapshot.
type Resolved struct {
	Program *Program

	// Scope is the management region Ω (with entry restriction, if any).
	Scope *topo.Scope
	// Allow lists the ACL attachment points where rules may be changed,
	// added, or generated.
	Allow []topo.ACLBinding
	// Before is the original network; After is the post-update snapshot
	// obtained by applying the modify statements (and, for FromUpdated
	// targets, the separately supplied updated network).
	Before *topo.Network
	After  *topo.Network
	// Modified lists the bindings whose ACLs the update touches.
	Modified []topo.ACLBinding
	// Cleared lists the subset of Modified set to permit-all ("modify S
	// to permit-all") — the source interfaces of a §5 migration.
	Cleared  []topo.ACLBinding
	Controls []ResolvedControl
	Commands []Command
}

// ResolveOptions carries the out-of-band inputs a program may reference.
type ResolveOptions struct {
	// Updated supplies the post-update ACLs for "modify X to X'"
	// statements (the operator's hand-written update plan). May be nil
	// when no FromUpdated modify occurs. Only the ACLs of modified
	// bindings are read (and cloned) from it: topo.LoadView suffices.
	Updated *topo.Network
}

// Resolve binds prog to the network, expanding patterns and building the
// post-update snapshot.
func Resolve(prog *Program, net *topo.Network, opts ResolveOptions) (*Resolved, error) {
	r := &Resolved{Program: prog, Before: net, Commands: prog.Commands}

	// Scope: the devices named by the scope patterns.
	if len(prog.Scope) == 0 {
		return nil, fmt.Errorf("lai: program has no scope")
	}
	devSet := map[string]bool{}
	for _, pat := range prog.Scope {
		if _, ok := net.Devices[pat.Device]; !ok {
			return nil, fmt.Errorf("lai: scope names unknown device %q", pat.Device)
		}
		devSet[pat.Device] = true
	}
	devs := make([]string, 0, len(devSet))
	for d := range devSet {
		devs = append(devs, d)
	}
	r.Scope = topo.NewScope(devs...)
	if len(prog.Entries) > 0 {
		var ids []string
		for _, pat := range prog.Entries {
			ifaces, err := expandPattern(net, pat)
			if err != nil {
				return nil, err
			}
			for _, i := range ifaces {
				ids = append(ids, i.ID())
			}
		}
		r.Scope.WithEntries(ids...)
	}

	// Allow: expand to ACL bindings.
	for _, pat := range prog.Allow {
		bs, err := expandBindings(net, pat)
		if err != nil {
			return nil, err
		}
		r.Allow = append(r.Allow, bs...)
	}

	// Build the post-update snapshot.
	after := net.Clone()
	for _, m := range prog.Modifies {
		for _, pat := range m.Targets {
			bs, err := expandBindings(net, pat)
			if err != nil {
				return nil, err
			}
			for _, b := range bs {
				ai, err := after.LookupInterface(b.Iface.ID())
				if err != nil {
					return nil, err
				}
				switch m.Kind {
				case ToPermitAll:
					if b.Iface.ACL(b.Dir) == nil && pat.Dir == AnyDir {
						continue // nothing bound here to clear
					}
					ai.SetACL(b.Dir, acl.PermitAll())
				case ToNamedACL:
					def, ok := prog.ACLDefs[m.ACLName]
					if !ok {
						return nil, fmt.Errorf("lai: modify references undefined acl %q", m.ACLName)
					}
					ai.SetACL(b.Dir, def.Clone())
				case FromUpdated:
					if opts.Updated == nil {
						return nil, fmt.Errorf("lai: modify %s needs an updated snapshot (none supplied)", b.Iface.ID())
					}
					ui, err := opts.Updated.LookupInterface(b.Iface.ID())
					if err != nil {
						return nil, fmt.Errorf("lai: updated snapshot: %v", err)
					}
					if ua := ui.ACL(b.Dir); ua != nil {
						ai.SetACL(b.Dir, ua.Clone())
					} else {
						ai.SetACL(b.Dir, nil)
					}
				}
				r.Modified = append(r.Modified, topo.ACLBinding{Iface: ai, Dir: b.Dir})
				if m.Kind == ToPermitAll {
					r.Cleared = append(r.Cleared, topo.ACLBinding{Iface: ai, Dir: b.Dir})
				}
			}
		}
	}
	r.After = after

	// Controls.
	for _, c := range prog.Controls {
		rc := ResolvedControl{Mode: c.Mode, Match: c.Match}
		for _, pat := range c.From {
			ifaces, err := expandPattern(net, pat)
			if err != nil {
				return nil, err
			}
			rc.From = append(rc.From, ifaces...)
		}
		for _, pat := range c.To {
			ifaces, err := expandPattern(net, pat)
			if err != nil {
				return nil, err
			}
			rc.To = append(rc.To, ifaces...)
		}
		r.Controls = append(r.Controls, rc)
	}
	return r, nil
}

// expandPattern expands a pattern to concrete interfaces (ignoring the
// direction qualifier).
func expandPattern(net *topo.Network, pat IfPattern) ([]*topo.Interface, error) {
	d, ok := net.Devices[pat.Device]
	if !ok {
		return nil, fmt.Errorf("lai: unknown device %q", pat.Device)
	}
	if pat.Iface == "*" {
		return d.SortedInterfaces(), nil
	}
	i, ok := d.Interfaces[pat.Iface]
	if !ok {
		return nil, fmt.Errorf("lai: unknown interface %q on device %q", pat.Iface, pat.Device)
	}
	return []*topo.Interface{i}, nil
}

// expandBindings expands a pattern to ACL attachment points. A pattern
// without a direction qualifier covers both directions when the
// interface is named explicitly; for globs it covers the directions that
// currently carry an ACL, falling back to ingress when none do (so that
// "allow R1:*" offers useful placement points without doubling every
// interface).
func expandBindings(net *topo.Network, pat IfPattern) ([]topo.ACLBinding, error) {
	ifaces, err := expandPattern(net, pat)
	if err != nil {
		return nil, err
	}
	var out []topo.ACLBinding
	for _, i := range ifaces {
		switch pat.Dir {
		case InOnly:
			out = append(out, topo.ACLBinding{Iface: i, Dir: topo.In})
		case OutOnly:
			out = append(out, topo.ACLBinding{Iface: i, Dir: topo.Out})
		default:
			hasIn, hasOut := i.ACL(topo.In) != nil, i.ACL(topo.Out) != nil
			switch {
			case hasIn && hasOut:
				out = append(out, topo.ACLBinding{Iface: i, Dir: topo.In},
					topo.ACLBinding{Iface: i, Dir: topo.Out})
			case hasOut:
				out = append(out, topo.ACLBinding{Iface: i, Dir: topo.Out})
			default:
				out = append(out, topo.ACLBinding{Iface: i, Dir: topo.In})
			}
		}
	}
	return out, nil
}
