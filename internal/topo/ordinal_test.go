package topo_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"jinjing/internal/ciscoconf"
	"jinjing/internal/netgen"
	"jinjing/internal/papernet"
	"jinjing/internal/topo"
)

// checkOrdinals fails unless n's interface ordinals are 0..NumInterfaces-1,
// each held by one interface, and every device reports n as its network.
func checkOrdinals(t *testing.T, what string, n *topo.Network) {
	t.Helper()
	seen := make([]bool, n.NumInterfaces())
	count := 0
	for _, d := range n.Devices {
		if d.Network() != n {
			t.Fatalf("%s: device %s belongs to another network", what, d.Name)
		}
		for _, i := range d.Interfaces {
			o := i.Ord()
			if o < 0 || o >= len(seen) || seen[o] {
				t.Fatalf("%s: %s has ordinal %d of %d, out of range or repeated", what, i.ID(), o, len(seen))
			}
			seen[o] = true
			count++
		}
	}
	if count != len(seen) {
		t.Fatalf("%s: %d interfaces, NumInterfaces %d", what, count, len(seen))
	}
}

func marshal(t *testing.T, n *topo.Network) []byte {
	t.Helper()
	data, err := n.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkClone fails unless n's clone has dense ordinals, marshals to the
// same bytes (FIB entries, ECMP groups included, in the same order; the
// same links) and refers only to its own interfaces.
func checkClone(t *testing.T, what string, n *topo.Network) {
	t.Helper()
	c := n.Clone()
	checkOrdinals(t, what+" clone", c)
	if !bytes.Equal(marshal(t, c), marshal(t, n)) {
		t.Fatalf("%s: the clone marshals differently", what)
	}
	for _, d := range c.Devices {
		for _, e := range d.FIB {
			if d.Interfaces[e.Out.Name] != e.Out {
				t.Fatalf("%s clone: route via %s is not the clone's interface", what, e.Out.ID())
			}
		}
		for _, i := range d.Interfaces {
			if p := c.Peer(i); p != nil && p.Device.Network() != c {
				t.Fatalf("%s clone: %s links to %s of another network", what, i.ID(), p.ID())
			}
		}
	}
}

// TestInterfaceOrdinals pins that every way a network is built numbers
// its interfaces densely from 0 — both JSON readers, a decode into a
// zero Network value, ciscoconf.BuildNetwork, Clone, and an interface
// created after the load — and that Clone round-trips through
// MarshalJSON.
func TestInterfaceOrdinals(t *testing.T) {
	data := marshal(t, netgen.Build(netgen.DefaultConfig(netgen.Small, 1)).Net)
	if _, ok := topo.ReadPlain(data); !ok {
		t.Fatal("netgen's JSON is not in the plain form")
	}
	plain := topo.NewNetwork()
	if err := plain.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	// A case-variant key is outside the plain form: encoding/json decodes it.
	variant := bytes.Replace(data, []byte(`"devices"`), []byte(`"Devices"`), 1)
	if _, ok := topo.ReadPlain(variant); ok {
		t.Fatal("the case-variant document is in the plain form")
	}
	fallback := topo.NewNetwork()
	if err := fallback.UnmarshalJSON(variant); err != nil {
		t.Fatal(err)
	}
	var zero topo.Network // UnmarshalJSON replaces a zero value with a new network
	if err := json.Unmarshal(data, &zero); err != nil {
		t.Fatal(err)
	}

	var cfgs []*ciscoconf.DeviceConfig
	for _, text := range []string{
		"hostname G\ninterface d1\ninterface d2\nip route 10.0.0.0 255.0.0.0 d1\nip route 10.0.0.0 255.0.0.0 d2\n",
		"hostname R\ninterface u\ninterface x\nip route 10.0.0.0 255.0.0.0 x\nip route 0.0.0.0 0.0.0.0 u\n",
	} {
		cfg, err := ciscoconf.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	ios, err := ciscoconf.BuildNetwork(cfgs, []ciscoconf.Link{
		{FromDevice: "G", FromIface: "d1", ToDevice: "R", ToIface: "u"},
		{FromDevice: "R", FromIface: "u", ToDevice: "G", ToIface: "d1"},
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		what string
		n    *topo.Network
	}{
		{"plain reader", plain}, {"encoding/json", fallback}, {"zero value", &zero},
		{"ciscoconf", ios}, {"papernet", papernet.Build()},
	} {
		checkOrdinals(t, c.what, c.n)
		checkClone(t, c.what, c.n)
		c.n.Device(c.n.SortedDevices()[0].Name).Interface("late")
		c.n.Device("late").Interface("x")
		checkOrdinals(t, c.what+" after late interfaces", c.n)
		checkClone(t, c.what+" after late interfaces", c.n)
	}
	if !bytes.Equal(marshal(t, plain), marshal(t, fallback)) {
		t.Fatal("the two readers built different networks")
	}
}
