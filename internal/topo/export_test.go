package topo

import "jinjing/internal/header"

// NetworkJSON is the decoded JSON schema, for the external tests that
// compare the plain reader with encoding/json.
type NetworkJSON = networkJSON

// ReadPlain runs the plain reader alone.
func ReadPlain(data []byte) (NetworkJSON, bool) {
	p, ok := readPlain(data, false)
	if !ok {
		return NetworkJSON{}, false
	}
	return p.in, true
}

// BuildNetwork runs the build step UnmarshalJSON shares between its
// readers on an already decoded document.
func BuildNetwork(in *NetworkJSON) (*Network, error) {
	n := NewNetwork()
	return n, n.build(in)
}

// LoadViewPlain is LoadView with its plain reader alone: ok is false
// when the reader declines the document.
func LoadViewPlain(data []byte) (n *Network, err error, ok bool) {
	p, ok := readPlain(data, true)
	if !ok {
		return nil, nil, false
	}
	n, err = p.Build()
	return n, err, true
}

// LoadViewStd is LoadView with encoding/json alone.
func LoadViewStd(data []byte) (*Network, error) {
	p, err := decodeStd(data, true)
	if err != nil {
		return nil, err
	}
	return p.Build()
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
