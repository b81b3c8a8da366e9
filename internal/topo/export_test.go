package topo

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
