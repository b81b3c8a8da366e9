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
	var in networkJSON
	if !readPlain(data, &in) {
		in = networkJSON{}
		if err := json.Unmarshal(data, &in); err != nil {
			return err
		}
	}
	return n.build(&in)
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

// readPlain fills in from data when data is in the plain form of the
// network schema, the form MarshalJSON and every generator in this
// repository write:
//
//   - objects hold only the schema's keys, in exact case, each at most
//     once;
//   - every value is an array or object of the schema, a string of
//     printable ASCII with no escapes, or null;
//   - whitespace may sit between tokens.
//
// On any other input (escapes, non-ASCII, unknown, duplicate or
// case-variant keys, numbers, booleans, malformed JSON) it reports
// false, leaving in partly filled, and the caller decodes data with
// encoding/json instead. Everything readPlain accepts is valid JSON
// that encoding/json decodes to the same networkJSON.
func readPlain(data []byte, in *networkJSON) bool {
	r := plainReader{data: data}
	if !r.value(in) {
		return false
	}
	r.space()
	return r.off == len(r.data)
}

// Plain is a network value read in the plain form and not yet built.
type Plain struct{ in networkJSON }

// ReadPlainAt reads the network value that starts at data[off], for a
// value embedded in a larger document (a request body), as readPlain
// reads a whole document, and reports the offset just past it. ok is
// false when the value is not plain; the caller then decodes the
// document another way.
func ReadPlainAt(data []byte, off int) (p *Plain, end int, ok bool) {
	p = new(Plain)
	r := plainReader{data: data, off: off}
	if !r.value(&p.in) {
		return nil, 0, false
	}
	return p, r.off, true
}

// Build builds the network p holds. Its error is the one UnmarshalJSON
// returns for the value's bytes.
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

// strOrNull reads null or a plain string into dst.
func (r *plainReader) strOrNull(dst *string) bool {
	if r.null() {
		return true
	}
	s, ok := r.str()
	*dst = string(s)
	return ok
}

// plainArray reads null or an array of objects, each read by elem, into
// dst. As in encoding/json, null leaves dst nil, [] makes it empty, and
// a null element is the zero value.
func plainArray[T any](r *plainReader, dst *[]T, elem func(*plainReader, *T) bool) bool {
	if r.null() {
		return true
	}
	if !r.consume('[') {
		return false
	}
	out := []T{}
	for first := true; ; first = false {
		done, ok := r.next(']', first)
		if !ok {
			return false
		}
		if done {
			*dst = out
			return true
		}
		var zero T
		out = append(out, zero)
		if !r.null() && !(r.consume('{') && elem(r, &out[len(out)-1])) {
			return false
		}
	}
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
			return 2, plainArray(r, &in.Links, (*plainReader).link)
		}
		return 0, false
	})
}

func (r *plainReader) device(dj *deviceJSON) bool {
	return r.object(func(key []byte) (uint8, bool) {
		switch string(key) {
		case "name":
			return 1, r.strOrNull(&dj.Name)
		case "interfaces":
			return 2, plainArray(r, &dj.Interfaces, (*plainReader).iface)
		case "routes":
			return 4, plainArray(r, &dj.Routes, (*plainReader).route)
		}
		return 0, false
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
