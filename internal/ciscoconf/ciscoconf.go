// Package ciscoconf parses a Cisco-IOS-flavored router configuration
// dialect into the topo network model. The paper's deployment section
// (§7) names vendor configuration formats as a main data-source
// challenge; this package is the corresponding ingestion substrate, so
// the engine can consume device configs directly instead of the JSON
// schema.
//
// Supported statements (one file per device):
//
//	hostname <name>
//
//	ip access-list extended <name>
//	  permit ip any any
//	  deny   ip any 10.2.0.0 0.0.255.255
//	  permit tcp 10.0.0.0 0.255.255.255 host 192.168.1.1 eq 443
//	  deny   udp any range 1000 2000 any
//	  permit ip any 10.3.0.0 0.0.255.255
//
//	interface <name>
//	  ip access-group <acl-name> in|out
//	  description ...            (ignored)
//
//	ip route <addr> <mask> <interface-name>
//
// Wildcard masks follow IOS conventions (0.0.0.255 = /24); only
// contiguous wildcards are accepted. "host A" means A/32; "any" matches
// everything. Port qualifiers: "eq N", "range N M", "gt N", "lt N".
// Comments start with "!".
package ciscoconf

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/topo"
)

// DeviceConfig is one parsed device configuration.
type DeviceConfig struct {
	Hostname string
	ACLs     map[string]*acl.ACL
	// Bindings maps interface name -> direction -> ACL name.
	Bindings map[string]map[topo.Direction]string
	// Routes are static routes: prefix via named interface.
	Routes []StaticRoute
}

// StaticRoute is one "ip route" statement.
type StaticRoute struct {
	Prefix header.Prefix
	Iface  string
}

// ParseError is the structured syntax error of the configuration
// parser: the 1-based line the parser stopped at (0 when the error is
// file-level, e.g. a missing hostname) and a message. Every error
// returned by Parse is a *ParseError.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("ciscoconf: line %d: %s", e.Line, e.Msg)
	}
	return "ciscoconf: " + e.Msg
}

// Parse parses one device configuration.
func Parse(text string) (*DeviceConfig, error) {
	cfg := &DeviceConfig{
		ACLs:     map[string]*acl.ACL{},
		Bindings: map[string]map[topo.Direction]string{},
	}
	var curACL *acl.ACL
	var curIface string

	var fields []string
	for lineNo, line, rest := 0, "", text; rest != ""; lineNo++ {
		line, rest, _ = strings.Cut(rest, "\n")
		if i := strings.IndexByte(line, '!'); i >= 0 {
			line = line[:i]
		}
		indented := strings.HasPrefix(line, " ") || strings.HasPrefix(line, "\t")
		fields = appendFields(fields[:0], line)
		if len(fields) == 0 {
			continue
		}
		errf := func(format string, args ...interface{}) error {
			return &ParseError{Line: lineNo + 1, Msg: fmt.Sprintf(format, args...)}
		}

		if !indented {
			curACL, curIface = nil, ""
			switch fields[0] {
			case "hostname":
				if len(fields) != 2 {
					return nil, errf("hostname wants one argument")
				}
				cfg.Hostname = fields[1]
			case "ip":
				if len(fields) < 2 {
					return nil, errf("bare ip statement")
				}
				switch {
				case len(fields) >= 4 && fields[1] == "access-list" && fields[2] == "extended":
					a := &acl.ACL{Default: acl.Deny} // IOS ACLs end in implicit deny
					cfg.ACLs[fields[3]] = a
					curACL = a
				case fields[1] == "route" && len(fields) != 5:
					return nil, errf("ip route wants <addr> <mask> <interface>")
				case len(fields) == 5 && fields[1] == "route":
					p, err := parseAddrMask(fields[2], fields[3], false)
					if err != nil {
						return nil, errf("%v", err)
					}
					cfg.Routes = append(cfg.Routes, StaticRoute{Prefix: p, Iface: fields[4]})
				default:
					return nil, errf("unsupported ip statement %q", line)
				}
			case "interface":
				if len(fields) != 2 {
					return nil, errf("interface wants one argument")
				}
				curIface = fields[1]
			case "end":
				// no-op
			default:
				return nil, errf("unsupported statement %q", fields[0])
			}
			continue
		}

		// Indented: body of an ACL or interface block.
		switch {
		case curACL != nil:
			rule, err := parseRuleLine(fields)
			if err != nil {
				return nil, errf("%v", err)
			}
			curACL.Rules = append(curACL.Rules, rule)
		case curIface != "":
			switch fields[0] {
			case "ip":
				if len(fields) == 4 && fields[1] == "access-group" {
					dir := topo.In
					switch fields[3] {
					case "in":
					case "out":
						dir = topo.Out
					default:
						return nil, errf("access-group direction must be in/out")
					}
					if cfg.Bindings[curIface] == nil {
						cfg.Bindings[curIface] = map[topo.Direction]string{}
					}
					cfg.Bindings[curIface][dir] = fields[2]
				} else {
					return nil, errf("unsupported interface ip statement %q", line)
				}
			case "description", "no", "shutdown":
				// ignored
			default:
				return nil, errf("unsupported interface statement %q", fields[0])
			}
		default:
			return nil, errf("indented line outside a block: %q", line)
		}
	}
	if cfg.Hostname == "" {
		return nil, &ParseError{Msg: "missing hostname"}
	}
	return cfg, nil
}

// appendFields appends strings.Fields(s) to dst, so that one slice serves
// every line. Printable ASCII, never space, skips the unicode.IsSpace call.
func appendFields(dst []string, s string) []string {
	start := -1
	for i, r := range s {
		if space := (r <= ' ' || r >= utf8.RuneSelf) && unicode.IsSpace(r); !space && start < 0 {
			start = i
		} else if space && start >= 0 {
			dst, start = append(dst, s[start:i]), -1
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// parseRuleLine parses "permit|deny <proto> <src> [ports] <dst> [ports]".
func parseRuleLine(fields []string) (acl.Rule, error) {
	var r acl.Rule
	switch fields[0] {
	case "permit":
		r.Action = acl.Permit
	case "deny":
		r.Action = acl.Deny
	default:
		return r, fmt.Errorf("rule must start with permit/deny, got %q", fields[0])
	}
	if len(fields) < 2 {
		return r, fmt.Errorf("rule missing protocol")
	}
	m := header.MatchAll
	switch fields[1] {
	case "ip":
	case "tcp":
		m.Proto = header.Proto(header.ProtoTCP)
	case "udp":
		m.Proto = header.Proto(header.ProtoUDP)
	case "icmp":
		m.Proto = header.Proto(header.ProtoICMP)
	default:
		n, err := strconv.ParseUint(fields[1], 10, 8)
		if err != nil {
			return r, fmt.Errorf("unknown protocol %q", fields[1])
		}
		m.Proto = header.Proto(uint8(n))
	}
	rest := fields[2:]
	var err error
	m.Src, m.SrcPort, rest, err = parseEndpoint(rest)
	if err != nil {
		return r, fmt.Errorf("source: %v", err)
	}
	m.Dst, m.DstPort, rest, err = parseEndpoint(rest)
	if err != nil {
		return r, fmt.Errorf("destination: %v", err)
	}
	if len(rest) > 0 {
		return r, fmt.Errorf("trailing tokens %v", rest)
	}
	r.Match = m
	return r, nil
}

// parseEndpoint consumes an address spec plus optional port qualifier.
func parseEndpoint(fields []string) (header.Prefix, header.PortRange, []string, error) {
	if len(fields) == 0 {
		return header.Prefix{}, header.AnyPort, nil, fmt.Errorf("missing address")
	}
	var p header.Prefix
	switch fields[0] {
	case "any":
		p = header.AnyPrefix
		fields = fields[1:]
	case "host":
		if len(fields) < 2 {
			return p, header.AnyPort, nil, fmt.Errorf("host wants an address")
		}
		hp, err := header.ParsePrefix(fields[1])
		if err != nil {
			return p, header.AnyPort, nil, err
		}
		p = hp
		fields = fields[2:]
	default:
		if len(fields) < 2 {
			return p, header.AnyPort, nil, fmt.Errorf("address wants a wildcard mask")
		}
		ap, err := parseAddrMask(fields[0], fields[1], true)
		if err != nil {
			return p, header.AnyPort, nil, err
		}
		p = ap
		fields = fields[2:]
	}
	ports := header.AnyPort
	if len(fields) > 0 {
		switch fields[0] {
		case "eq":
			if len(fields) < 2 {
				return p, ports, nil, fmt.Errorf("eq wants a port")
			}
			n, err := strconv.ParseUint(fields[1], 10, 16)
			if err != nil {
				return p, ports, nil, fmt.Errorf("bad port %q", fields[1])
			}
			ports = header.PortRange{Lo: uint16(n), Hi: uint16(n)}
			fields = fields[2:]
		case "range":
			if len(fields) < 3 {
				return p, ports, nil, fmt.Errorf("range wants two ports")
			}
			lo, err1 := strconv.ParseUint(fields[1], 10, 16)
			hi, err2 := strconv.ParseUint(fields[2], 10, 16)
			if err1 != nil || err2 != nil || hi < lo {
				return p, ports, nil, fmt.Errorf("bad range %q %q", fields[1], fields[2])
			}
			ports = header.PortRange{Lo: uint16(lo), Hi: uint16(hi)}
			fields = fields[3:]
		case "gt":
			if len(fields) < 2 {
				return p, ports, nil, fmt.Errorf("gt wants a port")
			}
			n, err := strconv.ParseUint(fields[1], 10, 16)
			if err != nil || n >= 65535 {
				return p, ports, nil, fmt.Errorf("bad port %q", fields[1])
			}
			ports = header.PortRange{Lo: uint16(n) + 1, Hi: 65535}
			fields = fields[2:]
		case "lt":
			if len(fields) < 2 {
				return p, ports, nil, fmt.Errorf("lt wants a port")
			}
			n, err := strconv.ParseUint(fields[1], 10, 16)
			if err != nil || n == 0 {
				return p, ports, nil, fmt.Errorf("bad port %q", fields[1])
			}
			ports = header.PortRange{Lo: 0, Hi: uint16(n) - 1}
			fields = fields[2:]
		}
	}
	return p, ports, fields, nil
}

// parseAddrMask parses an address with either a wildcard mask (IOS ACL
// style, wildcard=true) or a subnet mask ("ip route" style).
func parseAddrMask(addrStr, maskStr string, wildcard bool) (header.Prefix, error) {
	addr, err := parseIPv4(addrStr)
	if err != nil {
		return header.Prefix{}, err
	}
	mask, err := parseIPv4(maskStr)
	if err != nil {
		return header.Prefix{}, err
	}
	if wildcard {
		mask = ^mask
	}
	// The mask must be contiguous ones from the top.
	ones := bits.OnesCount32(mask)
	if mask != 0 && bits.LeadingZeros32(^mask) != ones {
		return header.Prefix{}, fmt.Errorf("non-contiguous mask %q", maskStr)
	}
	return header.Prefix{Addr: addr, Len: ones}.Canonical(), nil
}

func parseIPv4(s string) (uint32, error) {
	if strings.Count(s, ".") != 3 {
		return 0, fmt.Errorf("bad IPv4 %q", s)
	}
	var out uint32
	part, rest := "", s
	for range 4 {
		part, rest, _ = strings.Cut(rest, ".")
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 || n > 255 {
			return 0, fmt.Errorf("bad IPv4 octet in %q", s)
		}
		out = out<<8 | uint32(n)
	}
	return out, nil
}

// Link declares one directed cable for BuildNetwork.
type Link struct {
	FromDevice, FromIface string
	ToDevice, ToIface     string
}

// BuildNetwork assembles parsed device configs plus a cable plan into a
// topo.Network: interfaces are created, ACLs bound, and static routes
// installed.
func BuildNetwork(configs []*DeviceConfig, links []Link) (*topo.Network, error) {
	n := topo.NewNetwork()
	for _, cfg := range configs {
		d := n.Device(cfg.Hostname)
		for iname, dirs := range cfg.Bindings {
			iface := d.Interface(iname)
			for dir, aclName := range dirs {
				a, ok := cfg.ACLs[aclName]
				if !ok {
					return nil, fmt.Errorf("ciscoconf: %s: interface %s references unknown ACL %q",
						cfg.Hostname, iname, aclName)
				}
				iface.SetACL(dir, a.Clone())
			}
		}
		d.FIB = slices.Grow(d.FIB, len(cfg.Routes))
		var out *topo.Interface
		for _, rt := range cfg.Routes {
			if out == nil || out.Name != rt.Iface {
				out = d.Interface(rt.Iface)
			}
			d.AddRoute(rt.Prefix, out)
		}
	}
	for _, l := range links {
		from, err := n.LookupInterface(l.FromDevice + ":" + l.FromIface)
		if err != nil {
			return nil, fmt.Errorf("ciscoconf: link: %v", err)
		}
		to, err := n.LookupInterface(l.ToDevice + ":" + l.ToIface)
		if err != nil {
			return nil, fmt.Errorf("ciscoconf: link: %v", err)
		}
		n.AddLink(from, to)
	}
	return n, nil
}

// FormatACL renders an ACL back into IOS syntax (the inverse of the rule
// parser), for emitting synthesized ACLs as device configuration.
func FormatACL(name string, a *acl.ACL) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ip access-list extended %s\n", name)
	for _, r := range a.Rules {
		b.WriteString("  " + formatRule(r) + "\n")
	}
	// The explicit catch-all for the ACL's default.
	if a.Default == acl.Permit {
		b.WriteString("  permit ip any any\n")
	} else {
		b.WriteString("  deny ip any any\n")
	}
	return b.String()
}

func formatRule(r acl.Rule) string {
	parts := []string{r.Action.String()}
	m := r.Match
	switch {
	case m.Proto.IsAny():
		parts = append(parts, "ip")
	case m.Proto == header.Proto(header.ProtoTCP):
		parts = append(parts, "tcp")
	case m.Proto == header.Proto(header.ProtoUDP):
		parts = append(parts, "udp")
	case m.Proto == header.Proto(header.ProtoICMP):
		parts = append(parts, "icmp")
	default:
		parts = append(parts, strconv.Itoa(int(m.Proto.Lo)))
	}
	parts = append(parts, formatEndpoint(m.Src, m.SrcPort)...)
	parts = append(parts, formatEndpoint(m.Dst, m.DstPort)...)
	return strings.Join(parts, " ")
}

func formatEndpoint(p header.Prefix, ports header.PortRange) []string {
	var parts []string
	switch {
	case p.IsAny():
		parts = append(parts, "any")
	case p.Len == 32:
		parts = append(parts, "host", ipString(p.Addr))
	default:
		wildcard := ^(^uint32(0) << (32 - p.Len))
		parts = append(parts, ipString(p.Addr), ipString(wildcard))
	}
	switch {
	case ports.IsAny():
	case ports.Lo == ports.Hi:
		parts = append(parts, "eq", strconv.Itoa(int(ports.Lo)))
	default:
		parts = append(parts, "range", strconv.Itoa(int(ports.Lo)), strconv.Itoa(int(ports.Hi)))
	}
	return parts
}

func ipString(a uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", a>>24&0xff, a>>16&0xff, a>>8&0xff, a&0xff)
}
