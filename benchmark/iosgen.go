package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"jinjing/internal/acl"
	"jinjing/internal/ciscoconf"
	"jinjing/internal/header"
	"jinjing/internal/topo"
)

// renderIOS renders a network as one IOS-style configuration per device
// (in the dialect ciscoconf parses) plus the cable plan `jinjing -links`
// reads.
func renderIOS(n *topo.Network) (cfgs map[string]string, links []ciscoconf.Link) {
	cfgs = map[string]string{}
	for _, d := range n.SortedDevices() {
		var b strings.Builder
		fmt.Fprintf(&b, "hostname %s\n!\n", d.Name)
		var bind strings.Builder
		for _, i := range d.SortedInterfaces() {
			fmt.Fprintf(&bind, "interface %s\n", i.Name)
			for _, dir := range []topo.Direction{topo.In, topo.Out} {
				a := i.ACL(dir)
				if a == nil {
					continue
				}
				name := strings.ToUpper(d.Name + "-" + i.Name + "-" + dir.String())
				b.WriteString(ciscoconf.FormatACL(name, a))
				b.WriteString("!\n")
				fmt.Fprintf(&bind, "  ip access-group %s %s\n", name, dir)
			}
			bind.WriteString("!\n")
		}
		b.WriteString(bind.String())
		for _, e := range d.FIB {
			mask := ^uint32(0) << (32 - e.Prefix.Len)
			if e.Prefix.Len == 0 {
				mask = 0
			}
			fmt.Fprintf(&b, "ip route %s %s %s\n", dotted(e.Prefix.Addr), dotted(mask), e.Out.Name)
		}
		b.WriteString("end\n")
		cfgs[d.Name] = b.String()
		for _, i := range d.SortedInterfaces() {
			if peer := n.Peer(i); peer != nil {
				links = append(links, ciscoconf.Link{
					FromDevice: d.Name, FromIface: i.Name,
					ToDevice: peer.Device.Name, ToIface: peer.Name,
				})
			}
		}
	}
	return cfgs, links
}

func dotted(a uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", a>>24, a>>16&0xff, a>>8&0xff, a&0xff)
}

// parseIOS is what `jinjing -configs` does with a rendering.
func parseIOS(n *topo.Network, cfgs map[string]string, links []ciscoconf.Link) (*topo.Network, error) {
	var parsed []*ciscoconf.DeviceConfig
	for _, d := range n.SortedDevices() {
		cfg, err := ciscoconf.Parse(cfgs[d.Name])
		if err != nil {
			return nil, fmt.Errorf("%s.cfg: %v", d.Name, err)
		}
		parsed = append(parsed, cfg)
	}
	return ciscoconf.BuildNetwork(parsed, links)
}

// throughIOS returns n as it reads after a trip through the rendering.
func throughIOS(n *topo.Network) (*topo.Network, error) {
	cfgs, links := renderIOS(n)
	return parseIOS(n, cfgs, links)
}

// writeIOS writes the rendering of n to cfgDir/<device>.cfg and
// linksPath, and returns the network ciscoconf builds from it.
func writeIOS(n *topo.Network, cfgDir, linksPath string) (*topo.Network, error) {
	if err := os.MkdirAll(cfgDir, 0o755); err != nil {
		return nil, err
	}
	cfgs, links := renderIOS(n)
	for name, text := range cfgs {
		if err := os.WriteFile(filepath.Join(cfgDir, name+".cfg"), []byte(text), 0o644); err != nil {
			return nil, err
		}
	}
	type linkJSON struct {
		From string `json:"from"`
		To   string `json:"to"`
	}
	plan := make([]linkJSON, len(links))
	for i, l := range links {
		plan[i] = linkJSON{From: l.FromDevice + ":" + l.FromIface, To: l.ToDevice + ":" + l.ToIface}
	}
	data, err := json.MarshalIndent(plan, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(linksPath, data, 0o644); err != nil {
		return nil, err
	}
	return parseIOS(n, cfgs, links)
}

// sameNetwork reports the first difference between a network and what
// ciscoconf built from its rendering: devices, interfaces, routes (in
// order), links and rule lists must agree. An IOS ACL spells its
// default as a final catch-all rule, so got's rule lists are want's
// plus that one rule.
func sameNetwork(want, got *topo.Network) error {
	if len(want.Devices) != len(got.Devices) {
		return fmt.Errorf("%d devices, want %d", len(got.Devices), len(want.Devices))
	}
	for _, wd := range want.SortedDevices() {
		gd, ok := got.Devices[wd.Name]
		if !ok {
			return fmt.Errorf("device %s missing", wd.Name)
		}
		if len(wd.Interfaces) != len(gd.Interfaces) {
			return fmt.Errorf("%s: %d interfaces, want %d", wd.Name, len(gd.Interfaces), len(wd.Interfaces))
		}
		for _, wi := range wd.SortedInterfaces() {
			gi, ok := gd.Interfaces[wi.Name]
			if !ok {
				return fmt.Errorf("interface %s missing", wi.ID())
			}
			for _, dir := range []topo.Direction{topo.In, topo.Out} {
				if err := sameACL(wi.ACL(dir), gi.ACL(dir)); err != nil {
					return fmt.Errorf("%s %s: %v", wi.ID(), dir, err)
				}
			}
			wp, gp := want.Peer(wi), got.Peer(gi)
			if (wp == nil) != (gp == nil) || (wp != nil && wp.ID() != gp.ID()) {
				return fmt.Errorf("%s: link differs", wi.ID())
			}
		}
		if len(wd.FIB) != len(gd.FIB) {
			return fmt.Errorf("%s: %d routes, want %d", wd.Name, len(gd.FIB), len(wd.FIB))
		}
		for k, we := range wd.FIB {
			if ge := gd.FIB[k]; we.Prefix != ge.Prefix || we.Out.Name != ge.Out.Name {
				return fmt.Errorf("%s: route %d is %v via %s, want %v via %s",
					wd.Name, k, ge.Prefix, ge.Out.Name, we.Prefix, we.Out.Name)
			}
		}
	}
	return nil
}

func sameACL(want, got *acl.ACL) error {
	if want == nil || got == nil {
		if want != got {
			return fmt.Errorf("ACL presence differs")
		}
		return nil
	}
	rules := append(append([]acl.Rule(nil), want.Rules...), acl.Rule{Action: want.Default, Match: header.MatchAll})
	if len(rules) != len(got.Rules) {
		return fmt.Errorf("%d rules, want %d", len(got.Rules), len(rules))
	}
	for k := range rules {
		if rules[k] != got.Rules[k] {
			return fmt.Errorf("rule %d is %v, want %v", k, got.Rules[k], rules[k])
		}
	}
	return nil
}
