package topo

import (
	"encoding/json"
	"fmt"
	"slices"

	"jinjing/internal/acl"
	"jinjing/internal/header"
)

// The JSON schema for networks, used by the command-line tools. ACLs are
// embedded in their textual syntax so files stay human-editable.

type networkJSON struct {
	Devices []deviceJSON `json:"devices"`
	Links   []linkJSON   `json:"links"`
}

type deviceJSON struct {
	Name       string          `json:"name"`
	Interfaces []interfaceJSON `json:"interfaces"`
	Routes     []routeJSON     `json:"routes,omitempty"`
}

type interfaceJSON struct {
	Name   string `json:"name"`
	InACL  string `json:"in_acl,omitempty"`
	OutACL string `json:"out_acl,omitempty"`
}

type routeJSON struct {
	Prefix string `json:"prefix"`
	Out    string `json:"out"`
}

type linkJSON struct {
	From string `json:"from"` // "device:interface" (egress side)
	To   string `json:"to"`   // "device:interface" (ingress side)
}

// MarshalJSON serializes the network deterministically.
func (n *Network) MarshalJSON() ([]byte, error) {
	var out networkJSON
	for _, d := range n.SortedDevices() {
		dj := deviceJSON{Name: d.Name}
		for _, i := range d.SortedInterfaces() {
			ij := interfaceJSON{Name: i.Name}
			if a := i.ACL(In); a != nil {
				ij.InACL = a.String()
			}
			if a := i.ACL(Out); a != nil {
				ij.OutACL = a.String()
			}
			dj.Interfaces = append(dj.Interfaces, ij)
		}
		for _, e := range d.FIB {
			dj.Routes = append(dj.Routes, routeJSON{Prefix: e.Prefix.String(), Out: e.Out.Name})
		}
		out.Devices = append(out.Devices, dj)
	}
	// Links sorted by (from, to) for determinism.
	for _, d := range n.SortedDevices() {
		for _, i := range d.SortedInterfaces() {
			if peer := n.Peer(i); peer != nil {
				out.Links = append(out.Links, linkJSON{From: i.ID(), To: peer.ID()})
			}
		}
	}
	return json.MarshalIndent(out, "", "  ")
}

// UnmarshalJSON loads a network from its JSON form. Documents in the
// plain form of the schema (see readPlain) are read in one pass; every
// other document is decoded by encoding/json, so its errors and edge
// cases are the standard library's. Callers that hold the bytes call
// this directly: json.Unmarshal(data, n) first validates and skips the
// whole document before it gets here.
func (n *Network) UnmarshalJSON(data []byte) error {
	p, err := load(data, false)
	if err != nil {
		return err
	}
	return n.build(&p.in)
}

// Load builds the network data holds, as UnmarshalJSON does.
func Load(data []byte) (*Network, error) { return loadBuilt(data, false) }

// LoadView builds the ACL view of the network document data: the
// devices and interfaces Load builds (one named only as a route's out
// included, in the same order) and their ACLs, parsed as Load parses
// them, but no FIB and no link, so a malformed prefix or a dangling
// link is no error.
func LoadView(data []byte) (*Network, error) { return loadBuilt(data, true) }

func loadBuilt(data []byte, view bool) (*Network, error) {
	p, err := load(data, view)
	if err != nil {
		return nil, err
	}
	return p.Build()
}

// load reads data in one pass when it is plain, and else decodes it
// with encoding/json (for a view, into the schema without links).
func load(data []byte, view bool) (*Plain, error) {
	if p, ok := readPlain(data, view); ok {
		return p, nil
	}
	return decodeStd(data, view)
}

// decodeStd decodes data with encoding/json; a view folds each route's
// out into its device's interfaces (see addOut) and keeps no route.
func decodeStd(data []byte, view bool) (*Plain, error) {
	p := new(Plain)
	if !view {
		return p, json.Unmarshal(data, &p.in)
	}
	var v struct {
		Devices []deviceJSON `json:"devices"`
	}
	err := json.Unmarshal(data, &v)
	for i := range v.Devices {
		dj, seen := &v.Devices[i], map[string]bool{}
		for _, rj := range dj.Routes {
			dj.Interfaces = addOut(dj.Interfaces, seen, []byte(rj.Out))
		}
		dj.Routes = nil
	}
	p.in.Devices = v.Devices
	return p, err
}

// addOut adds to a view's interfaces the one a route's out names, the
// first time seen meets the name: build's get-or-create then makes
// every route's interface in the order the full build does.
func addOut(ifaces []interfaceJSON, seen map[string]bool, out []byte) []interfaceJSON {
	if seen[string(out)] {
		return ifaces
	}
	name := string(out)
	seen[name] = true
	return append(ifaces, interfaceJSON{Name: name})
}

// build adds the decoded devices, interfaces, ACLs, routes and links to
// n, whichever reader filled in.
func (n *Network) build(in *networkJSON) error {
	if n.Devices == nil {
		*n = *NewNetwork()
	}
	for _, dj := range in.Devices {
		d := n.Device(dj.Name)
		for _, ij := range dj.Interfaces {
			iface := d.Interface(ij.Name)
			if ij.InACL != "" {
				a, err := acl.Parse(ij.InACL)
				if err != nil {
					return fmt.Errorf("topo: device %s interface %s in-ACL: %v", dj.Name, ij.Name, err)
				}
				iface.SetACL(In, a)
			}
			if ij.OutACL != "" {
				a, err := acl.Parse(ij.OutACL)
				if err != nil {
					return fmt.Errorf("topo: device %s interface %s out-ACL: %v", dj.Name, ij.Name, err)
				}
				iface.SetACL(Out, a)
			}
		}
		d.FIB = slices.Grow(d.FIB, len(dj.Routes))
		var out *Interface
		for _, rj := range dj.Routes {
			p, err := header.ParsePrefix(rj.Prefix)
			if err != nil {
				return fmt.Errorf("topo: device %s route: %v", dj.Name, err)
			}
			if out == nil || out.Name != rj.Out {
				out = d.Interface(rj.Out)
			}
			d.AddRoute(p, out)
		}
	}
	for _, lj := range in.Links {
		from, err := n.LookupInterface(lj.From)
		if err != nil {
			return fmt.Errorf("topo: link: %v", err)
		}
		to, err := n.LookupInterface(lj.To)
		if err != nil {
			return fmt.Errorf("topo: link: %v", err)
		}
		if from.Device == to.Device {
			return fmt.Errorf("topo: link: %s and %s are on the same device", lj.From, lj.To)
		}
		if peer := n.Peer(from); peer != nil && peer != to {
			return fmt.Errorf("topo: link: %s already linked to %s", lj.From, peer.ID())
		}
		n.AddLink(from, to)
	}
	return nil
}

// readPlain reads data when it is in the plain form of the network
// schema, the form MarshalJSON and every generator in this repository
// write:
//
//   - objects hold only the schema's keys, in exact case, each at most
//     once;
//   - every value is an array or object of the schema, a string of
//     printable ASCII with no escapes, or null;
//   - whitespace may sit between tokens.
//
// On any other input (escapes, non-ASCII, unknown, duplicate or
// case-variant keys, numbers, booleans, malformed JSON) it reports
// false, and the caller decodes data with encoding/json instead.
// Everything readPlain accepts is valid JSON that encoding/json decodes
// to the same networkJSON. A view reads the same documents into what
// decodeStd's view makes of them: no route and no link, and each
// route's out as an interface of its device.
func readPlain(data []byte, view bool) (*Plain, bool) {
	p, end, ok := readPlainAt(data, 0, view)
	r := plainReader{data: data, off: end}
	r.space()
	return p, ok && r.off == len(data)
}

// Plain is a network value read in the plain form and not yet built.
type Plain struct{ in networkJSON }

// ReadPlainAt reads the network value that starts at data[off], for a
// value embedded in a larger document (a request body), as readPlain
// reads a whole document, and reports the offset just past it. ok is
// false when the value is not plain; the caller then decodes the
// document another way.
func ReadPlainAt(data []byte, off int) (p *Plain, end int, ok bool) {
	return readPlainAt(data, off, false)
}

// ReadViewAt is ReadPlainAt for the value's ACL view (see LoadView).
func ReadViewAt(data []byte, off int) (p *Plain, end int, ok bool) {
	return readPlainAt(data, off, true)
}

func readPlainAt(data []byte, off int, view bool) (*Plain, int, bool) {
	p := new(Plain)
	r := plainReader{data: data, off: off, view: view}
	if !r.value(&p.in) {
		return nil, 0, false
	}
	return p, r.off, true
}

// Build builds the network p holds, or its view. Its error is the one
// Load, or LoadView, returns for the value's bytes.
func (p *Plain) Build() (*Network, error) {
	n := NewNetwork()
	if err := n.build(&p.in); err != nil {
		return nil, err
	}
	return n, nil
}

// plainReader is a cursor over a document being read by readPlain.
// Every method reports false when the input leaves the plain form.
type plainReader struct {
	data []byte
	off  int
	view bool
}

// space skips JSON whitespace.
func (r *plainReader) space() {
	d, i := r.data, r.off
	for i < len(d) && jsonSpace[d[i]] {
		i++
	}
	r.off = i
}

// jsonSpace holds JSON's whitespace bytes; plainByte the bytes a plain
// string may hold: printable ASCII but the quote and the backslash.
var jsonSpace, plainByte = func() (space, plain [256]bool) {
	for _, c := range " \t\n\r" {
		space[c] = true
	}
	for c := ' '; c <= '~'; c++ {
		plain[c] = c != '"' && c != '\\'
	}
	return
}()

// consume reads the byte c if it is the next token.
func (r *plainReader) consume(c byte) bool {
	r.space()
	if r.off < len(r.data) && r.data[r.off] == c {
		r.off++
		return true
	}
	return false
}

// null consumes the literal null if it is the next token.
func (r *plainReader) null() bool {
	r.space()
	if len(r.data)-r.off >= 4 && string(r.data[r.off:r.off+4]) == "null" {
		r.off += 4
		return true
	}
	return false
}

// next moves to the next member of an array or object whose opening
// bracket has been read: it consumes the separating comma, or the
// closing bracket (reported as done). first is true before the first
// member.
func (r *plainReader) next(closing byte, first bool) (done, ok bool) {
	if r.consume(closing) {
		return true, true
	}
	return false, first || r.consume(',')
}

// str reads a string of printable ASCII with no escapes.
func (r *plainReader) str() ([]byte, bool) {
	if !r.consume('"') {
		return nil, false
	}
	d, start := r.data, r.off
	i := start
	for i < len(d) && plainByte[d[i]] {
		i++
	}
	if i == len(d) || d[i] != '"' {
		return nil, false
	}
	r.off = i + 1
	return d[start:i], true
}

// key reads the next member's key and its colon, or the closing brace
// (reported as done).
func (r *plainReader) key(first bool) (key []byte, done, ok bool) {
	if done, ok = r.next('}', first); done || !ok {
		return nil, done, ok
	}
	if key, ok = r.str(); !ok || !r.consume(':') {
		return nil, false, false
	}
	return key, false, true
}

// object reads the members of an object whose opening brace has been
// read. member reads the value of one key and returns the key's bit,
// so that a repeated key is declined; it returns false for a key
// outside the schema.
func (r *plainReader) object(member func(key []byte) (bit uint8, ok bool)) bool {
	var seen uint8
	for first := true; ; first = false {
		k, done, ok := r.key(first)
		if done || !ok {
			return ok
		}
		bit, ok := member(k)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
}

// strOrNil reads null, as nil, or a plain string.
func (r *plainReader) strOrNil() ([]byte, bool) {
	if r.null() {
		return nil, true
	}
	return r.str()
}

// strOrNull reads null or a plain string into dst.
func (r *plainReader) strOrNull(dst *string) bool {
	s, ok := r.strOrNil()
	*dst = string(s)
	return ok
}

// array reads null or an array of objects, calling elem for each
// element: after an object's opening brace, or with null set for a
// null element.
func (r *plainReader) array(elem func(null bool) bool) bool {
	if r.null() {
		return true
	}
	if !r.consume('[') {
		return false
	}
	for first := true; ; first = false {
		done, ok := r.next(']', first)
		if !ok || done {
			return ok
		}
		null := r.null()
		if !null && !r.consume('{') || !elem(null) {
			return false
		}
	}
}

// plainArray reads null or an array of objects, each read by elem, into
// dst. As in encoding/json, null leaves dst nil, [] makes it empty, and
// a null element is the zero value.
func plainArray[T any](r *plainReader, dst *[]T, elem func(*plainReader, *T) bool) bool {
	if r.null() {
		return true
	}
	out := []T{}
	if !r.array(func(null bool) bool {
		out = append(out, *new(T))
		return null || elem(r, &out[len(out)-1])
	}) {
		return false
	}
	*dst = out
	return true
}

// value reads a network document: null or the network object.
func (r *plainReader) value(in *networkJSON) bool {
	return r.null() || r.consume('{') && r.network(in)
}

// The schema's objects, read after their opening brace.

func (r *plainReader) network(in *networkJSON) bool {
	return r.object(func(key []byte) (uint8, bool) {
		switch string(key) {
		case "devices":
			return 1, plainArray(r, &in.Devices, (*plainReader).device)
		case "links":
			links := &in.Links
			if r.view {
				links = new([]linkJSON) // checked, then dropped
			}
			return 2, plainArray(r, links, (*plainReader).link)
		}
		return 0, false
	})
}

func (r *plainReader) device(dj *deviceJSON) bool {
	var outs []interfaceJSON // a view's route outs
	ok := r.object(func(key []byte) (uint8, bool) {
		switch string(key) {
		case "name":
			return 1, r.strOrNull(&dj.Name)
		case "interfaces":
			return 2, plainArray(r, &dj.Interfaces, (*plainReader).iface)
		case "routes":
			if r.view {
				return 4, r.outs(&outs)
			}
			return 4, plainArray(r, &dj.Routes, (*plainReader).route)
		}
		return 0, false
	})
	dj.Interfaces = append(dj.Interfaces, outs...)
	return ok
}

// outs reads a device's routes for a view, each in the plain form, and
// adds the interface each names to dst (see addOut). A null route's
// out is empty, as build reads it.
func (r *plainReader) outs(dst *[]interfaceJSON) bool {
	seen := map[string]bool{}
	return r.array(func(null bool) bool {
		var out []byte
		ok := null
		if !null {
			out, ok = r.routeOut()
		}
		*dst = addOut(*dst, seen, out)
		return ok
	})
}

func (r *plainReader) iface(ij *interfaceJSON) bool {
	return r.object(func(key []byte) (uint8, bool) {
		switch string(key) {
		case "name":
			return 1, r.strOrNull(&ij.Name)
		case "in_acl":
			return 2, r.strOrNull(&ij.InACL)
		case "out_acl":
			return 4, r.strOrNull(&ij.OutACL)
		}
		return 0, false
	})
}

func (r *plainReader) route(rj *routeJSON) bool {
	return r.object(func(key []byte) (uint8, bool) {
		switch string(key) {
		case "prefix":
			return 1, r.strOrNull(&rj.Prefix)
		case "out":
			return 2, r.strOrNull(&rj.Out)
		}
		return 0, false
	})
}

// routeOut reads a route as route does, but keeps only its out: the
// prefix is checked for the plain form and dropped.
func (r *plainReader) routeOut() (out []byte, ok bool) {
	ok = r.object(func(key []byte) (uint8, bool) {
		var ok bool
		switch string(key) {
		case "prefix":
			_, ok = r.strOrNil()
			return 1, ok
		case "out":
			out, ok = r.strOrNil()
			return 2, ok
		}
		return 0, false
	})
	return out, ok
}

func (r *plainReader) link(lj *linkJSON) bool {
	return r.object(func(key []byte) (uint8, bool) {
		switch string(key) {
		case "from":
			return 1, r.strOrNull(&lj.From)
		case "to":
			return 2, r.strOrNull(&lj.To)
		}
		return 0, false
	})
}
