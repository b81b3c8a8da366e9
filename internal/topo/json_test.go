package topo_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"jinjing/internal/netgen"
	"jinjing/internal/papernet"
	"jinjing/internal/topo"
)

func TestJSONRoundTrip(t *testing.T) {
	orig := papernet.Build()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	loaded := topo.NewNetwork()
	if err := json.Unmarshal(data, loaded); err != nil {
		t.Fatal(err)
	}
	// Same devices, ACLs, paths, and FEC structure.
	if len(loaded.Devices) != len(orig.Devices) {
		t.Fatalf("device count %d != %d", len(loaded.Devices), len(orig.Devices))
	}
	for name, od := range orig.Devices {
		ld, ok := loaded.Devices[name]
		if !ok {
			t.Fatalf("device %s missing", name)
		}
		if len(ld.FIB) != len(od.FIB) {
			t.Errorf("device %s FIB %d != %d", name, len(ld.FIB), len(od.FIB))
		}
		for iname, oi := range od.Interfaces {
			li := ld.Interfaces[iname]
			if li == nil {
				t.Fatalf("interface %s:%s missing", name, iname)
			}
			for _, dir := range []topo.Direction{topo.In, topo.Out} {
				oa, la := oi.ACL(dir), li.ACL(dir)
				if (oa == nil) != (la == nil) {
					t.Errorf("%s:%s %v ACL presence differs", name, iname, dir)
					continue
				}
				if oa != nil && oa.String() != la.String() {
					t.Errorf("%s:%s %v ACL differs:\n%v\n%v", name, iname, dir, oa, la)
				}
			}
		}
	}
	op := orig.AllPaths(papernet.Scope())
	lp := loaded.AllPaths(papernet.Scope())
	if len(op) != len(lp) {
		t.Fatalf("path counts differ: %d vs %d", len(op), len(lp))
	}
	seen := map[string]bool{}
	for _, p := range op {
		seen[p.String()] = true
	}
	for _, p := range lp {
		if !seen[p.String()] {
			t.Errorf("loaded path %v not in original", p)
		}
	}
	// Determinism: marshaling twice gives identical bytes.
	data2, _ := json.Marshal(orig)
	if string(data) != string(data2) {
		t.Error("marshaling is not deterministic")
	}
}

// TestJSONErrors runs every bad document through both entry points,
// json.Unmarshal(data, n) and n.UnmarshalJSON(data). Where want is set,
// the error text is encoding/json's (or, for the repeated key, the one
// its merge of both "routes" arrays produces): documents that look
// plain but are malformed must not get an error of the plain reader's
// own making. LoadView fails with the same text, except on a document
// whose only fault is in a route's prefix or a link (viewOK), which the
// view does not read.
func TestJSONErrors(t *testing.T) {
	bad := []struct {
		in, want string
		viewOK   bool
	}{
		{in: `{"devices":[{"name":"A","interfaces":[{"name":"1","in_acl":"frobnicate"}]}]}`},
		{in: `{"devices":[{"name":"A","interfaces":[{"name":"1"}],"routes":[{"prefix":"999.0.0.0/8","out":"1"}]}]}`, viewOK: true},
		{in: `{"links":[{"from":"X:1","to":"Y:1"}]}`, viewOK: true},
		{in: `{"devices":[{"name":"A","interfaces":[{"name":"1"},{"name":"2"}]}],"links":[{"from":"A:1","to":"A:2"}]}`,
			want: "topo: link: A:1 and A:2 are on the same device", viewOK: true},
		{in: `{not json`},
		{in: `{"devices":[]}x`, want: "invalid character 'x' after top-level value"},
		{in: `{"devices":[{"name":"A`, want: "unexpected end of JSON input"},
		{in: "{\"devices\":[{\"name\":\"A\nB\"}]}", want: `invalid character '\n' in string literal`},
		{in: `{"devices":[],}`, want: "invalid character '}' looking for beginning of object key string"},
		// encoding/json decodes the second "routes" into the first's
		// elements, so the route keeps its bad prefix.
		{in: `{"devices":[{"name":"A","interfaces":[{"name":"1"}],"routes":[{"prefix":"999.0.0.0/8","out":"1"}],"routes":[{"out":"1"}]}]}`,
			want: `topo: device A route: header: bad IPv4 octet in "999.0.0.0/8"`, viewOK: true},
	}
	for _, c := range bad {
		viaJSON := json.Unmarshal([]byte(c.in), topo.NewNetwork())
		direct := topo.NewNetwork().UnmarshalJSON([]byte(c.in))
		if viaJSON == nil || direct == nil {
			t.Errorf("%q: json.Unmarshal err = %v, UnmarshalJSON err = %v; both should fail", c.in, viaJSON, direct)
			continue
		}
		if viaJSON.Error() != direct.Error() {
			t.Errorf("%q: json.Unmarshal err = %q, UnmarshalJSON err = %q", c.in, viaJSON, direct)
		}
		if c.want != "" && direct.Error() != c.want {
			t.Errorf("%q: err = %q, want %q", c.in, direct, c.want)
		}
		if _, err := topo.LoadView([]byte(c.in)); c.viewOK && err != nil || !c.viewOK && (err == nil || err.Error() != direct.Error()) {
			t.Errorf("%q: LoadView err = %v, load err = %q, view reads it: %v", c.in, err, direct, c.viewOK)
		}
	}
}

// FuzzNetworkJSON is the differential check on the plain reader. When
// it accepts a document, encoding/json must accept it too and decode
// the same networkJSON. On every input, UnmarshalJSON (both entry
// points) and a reference that decodes with encoding/json alone return
// the same error text, or networks that marshal to the same bytes.
//
// It holds the ACL view (LoadView) to the same readers: its plain
// reader accepts exactly the documents the full one does, and builds
// the view encoding/json's decode builds, or fails with its error
// text; and wherever UnmarshalJSON succeeds, the view succeeds with
// the same devices, interfaces and ACLs, and no route and no link.
func FuzzNetworkJSON(f *testing.F) {
	paper := papernet.Build()
	indented, err := paper.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(indented)
	for _, n := range []*topo.Network{paper, netgen.Build(netgen.DefaultConfig(netgen.Small, 1)).Net} {
		data, err := json.Marshal(n)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	const dev = `{"devices":[{"name":"A","interfaces":[{"name":"1","in_acl":"deny dst 10.0.0.0/8, permit all"},{"name":"2"}],` +
		`"routes":[{"prefix":"10.0.0.0/8","out":"2"}]},{"name":"B","interfaces":[{"name":"1"}]}],` +
		`"links":[{"from":"A:2","to":"B:1"}]}`
	f.Add([]byte(dev))
	for _, s := range []string{
		// One document per reason the plain reader declines.
		`{"devices":[{"name":"A\u0042"}]}`,             // escape
		`{"devices":[{"name":"Ä"}]}`,                   // non-ASCII
		`{"Devices":[{"name":"A"}]}`,                   // case-variant key
		`{"devices":[{"name":"A","name":"B"}]}`,        // duplicate key
		`{"devices":[{"name":"A","color":"red"}]}`,     // unknown key
		`{"devices":[{"name":1}]}`,                     // number
		`{"devices":[{"name":true}]}`,                  // boolean
		`{"devices":[{"name":"A"}]}garbage`,            // trailing garbage
		"\xef\xbb\xbf{\"devices\":[{\"name\":\"A\"}]}", // byte-order mark
		"{\"devices\":[{\"name\":\"A\tB\"}]}",          // raw control character
		// Empty arrays decode as empty, not nil, slices.
		`{"devices":[],"links":[]}`,
		`{"devices":[{"name":"A","interfaces":[],"routes":[]}]}`,
		// null in every position the schema has.
		`null`,
		`{"devices":null,"links":null}`,
		`{"devices":[null],"links":[null]}`,
		`{"devices":[{"name":null,"interfaces":null,"routes":null}]}`,
		`{"devices":[{"name":"A","interfaces":[null,{"name":null,"in_acl":null,"out_acl":null}],"routes":[null]}]}`,
		`{"devices":[{"name":"A","interfaces":[{"name":"1"}],"routes":[{"prefix":null,"out":null}]}]}`,
		`{"devices":[{"name":"A","interfaces":[{"name":"1"}]}],"links":[{"from":null,"to":"A:1"}]}`,
		// What the view reads differently from the full load: an
		// interface named only as a route's out, a malformed prefix, a
		// dangling link, a null route, and a bad ACL text.
		`{"devices":[{"name":"A","interfaces":[{"name":"1","in_acl":"permit all"}],"routes":[{"prefix":"10.0.0.0/8","out":"9"},{"prefix":"11.0.0.0/8","out":"1"},{"prefix":"12.0.0.0/8","out":"9"}]}]}`,
		`{"devices":[{"name":"A","interfaces":[{"name":"1","in_acl":"permit all"}],"routes":[{"prefix":"999.0.0.0/8","out":"1"}]}]}`,
		`{"devices":[{"name":"A","interfaces":[{"name":"1","in_acl":"permit all"}]}],"links":[{"from":"A:1","to":"Z:9"}]}`,
		`{"devices":[{"name":"A","interfaces":[{"name":"1"}],"routes":[null,{"prefix":"10.0.0.0/8","out":"1"}]}]}`,
		`{"devices":[{"name":"A","interfaces":[{"name":"1","in_acl":"permit all"},{"name":"2","out_acl":"frobnicate"}]}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if plain, ok := topo.ReadPlain(data); ok {
			var std topo.NetworkJSON
			if err := json.Unmarshal(data, &std); err != nil {
				t.Fatalf("plain reader accepted a document encoding/json rejects: %v", err)
			}
			if !reflect.DeepEqual(plain, std) {
				t.Fatalf("plain reader decoded\n%+v\nencoding/json decoded\n%+v", plain, std)
			}
		}
		want, wantErr := referenceLoad(data)
		direct := topo.NewNetwork()
		sameLoad(t, "UnmarshalJSON", direct, direct.UnmarshalJSON(data), want, wantErr)
		viaJSON := topo.NewNetwork()
		sameLoad(t, "json.Unmarshal", viaJSON, json.Unmarshal(data, viaJSON), want, wantErr)

		view, viewErr := topo.LoadView(data)
		std, stdErr := topo.LoadViewStd(data)
		plain, plainErr, plainOK := topo.LoadViewPlain(data)
		if _, ok := topo.ReadPlain(data); ok != plainOK {
			t.Fatalf("plain reader accepted %v, its view reader %v", ok, plainOK)
		}
		if plainOK {
			sameView(t, "plain view", plain, plainErr, std, stdErr)
			sameView(t, "LoadView", view, viewErr, plain, plainErr)
		} else {
			sameView(t, "LoadView", view, viewErr, std, stdErr)
		}
		if wantErr == nil {
			sameView(t, "view of the load", view, viewErr, want, nil)
		}
	})
}

// sameView fails the test unless got and want fail with the same text,
// or got is the ACL view of want: the same devices, the same interfaces
// with the same ordinals and the same ACL texts, and neither a route
// nor a link.
func sameView(t *testing.T, what string, got *topo.Network, gotErr error, want *topo.Network, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s err = %v, reference err = %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if len(got.Devices) != len(want.Devices) {
		t.Fatalf("%s: %d devices, reference %d", what, len(got.Devices), len(want.Devices))
	}
	for name, wd := range want.Devices {
		gd := got.Devices[name]
		if gd == nil || len(gd.Interfaces) != len(wd.Interfaces) || len(gd.FIB) != 0 {
			t.Fatalf("%s: device %q is %+v, reference %+v", what, name, gd, wd)
		}
		for iname, wi := range wd.Interfaces {
			gi := gd.Interfaces[iname]
			if gi == nil || gi.Ord() != wi.Ord() || got.Peer(gi) != nil {
				t.Fatalf("%s: interface %s:%s is %+v, reference %+v", what, name, iname, gi, wi)
			}
			for _, dir := range []topo.Direction{topo.In, topo.Out} {
				if g, w := gi.ACL(dir), wi.ACL(dir); (g == nil) != (w == nil) || g != nil && g.String() != w.String() {
					t.Fatalf("%s: %s:%s %v-ACL %v, reference %v", what, name, iname, dir, g, w)
				}
			}
		}
	}
}

// TestLoadViewDistinctOuts: a view reads a device whose routes each
// name a new out in time linear in the routes, plain and through
// encoding/json: eight times the routes must not take anywhere near
// 64 times as long.
func TestLoadViewDistinctOuts(t *testing.T) {
	doc := func(routes int) []byte {
		var b strings.Builder
		b.WriteString(`{"devices":[{"name":"A","routes":[`)
		for i := 0; i < routes; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"prefix":"","out":"%d"}`, i)
		}
		b.WriteString(`]}]}`)
		return []byte(b.String())
	}
	for _, load := range []func([]byte) (*topo.Network, error){topo.LoadView, topo.LoadViewStd} {
		best := func(data []byte) time.Duration {
			best := time.Duration(1 << 62)
			for range 3 {
				start := time.Now()
				n, err := load(data)
				if d := time.Since(start); d < best {
					best = d
				}
				if err != nil || len(n.Devices["A"].Interfaces) != bytes.Count(data, []byte(`"out"`)) {
					t.Fatalf("view: err %v, want one interface per out", err)
				}
			}
			return best
		}
		small, large := best(doc(2000)), best(doc(16000))
		if large > 24*small {
			t.Errorf("8x the distinct outs took %v against %v: not linear", large, small)
		}
	}
}

// TestPlainReaderScope pins which documents take the one-pass route:
// everything this repository writes does, and each decline reason
// hands the document to encoding/json.
func TestPlainReaderScope(t *testing.T) {
	n := netgen.Build(netgen.DefaultConfig(netgen.Small, 1)).Net
	compact, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := n.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{compact, indented, []byte(" null "), []byte(`{}`), []byte(`{"devices":[],"links":[]}`)} {
		if _, ok := topo.ReadPlain(data); !ok {
			t.Errorf("plain reader declined %.80q", data)
		}
	}
	for _, s := range []string{
		``, ` `, `[]`, `"x"`, `{"devices":[{"name":"A\u0042"}]}`, `{"devices":[{"name":"Ä"}]}`,
		`{"Devices":[]}`, `{"devices":[],"devices":[]}`, `{"devices":[{"name":"A","color":"red"}]}`,
		`{"devices":[{"name":1}]}`, `{"devices":[{"name":false}]}`, `{"devices":[]}x`, `{"devices":[]}{}`,
		"\xef\xbb\xbf{}", "{\"devices\":[{\"name\":\"A\x7fB\"}]}", `{"devices":[,]}`, `{"devices":[{}],}`,
		`{"devices":[{"name":"A"`, `{"devices":nul}`, `{"devices":{}}`, `{"devices":[[]]}`,
	} {
		if _, ok := topo.ReadPlain([]byte(s)); ok {
			t.Errorf("plain reader accepted %q", s)
		}
	}
}

// referenceLoad is UnmarshalJSON without the plain reader: encoding/json
// decodes the schema, then the shared build step runs.
func referenceLoad(data []byte) (*topo.Network, error) {
	var in topo.NetworkJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	return topo.BuildNetwork(&in)
}

func sameLoad(t *testing.T, entry string, got *topo.Network, gotErr error, want *topo.Network, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s err = %v, reference err = %v", entry, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	g, err := got.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	w, err := want.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s loaded\n%s\nreference loaded\n%s", entry, g, w)
	}
}
