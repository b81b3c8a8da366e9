package topo

import "jinjing/internal/header"

// NetworkJSON is the decoded JSON schema, for the external tests that
// compare the plain reader with encoding/json.
type NetworkJSON = networkJSON

// ReadPlain runs the plain reader alone.
func ReadPlain(data []byte) (NetworkJSON, bool) {
	var in networkJSON
	ok := readPlain(data, &in)
	return in, ok
}

// BuildNetwork runs the build step UnmarshalJSON shares between its
// readers on an already decoded document.
func BuildNetwork(in *NetworkJSON) (*Network, error) {
	n := NewNetwork()
	return n, n.build(in)
}

// SweepEgress resolves every class's egress interfaces on d through the
// row ForwardingIndex builds for it, in class order.
func SweepEgress(d *Device, classes []header.Prefix) [][]*Interface {
	x := newIndexer(nil, nil, classes)
	r := x.row(d)
	out := make([][]*Interface, len(classes))
	for c := range classes {
		for _, oi := range r.egress(int32(c)) {
			out[c] = append(out[c], r.ifaces[oi])
		}
	}
	return out
}
