package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"jinjing/internal/core"
	"jinjing/internal/topo"
)

// FuzzSessionRequest fuzzes the daemon's strict request decoding — the
// exact bytes an untrusted client controls. Invariants: decoding never
// panics; anything accepted satisfies the documented validation
// ceilings; applying accepted overrides onto engine options never
// produces an out-of-range knob; and the one-pass decode agrees with
// decodeStrict over the whole body: the same error text, or the same
// request with the same network bytes and the same loaded networks (or
// build errors). Run open-endedly in the daemon lane (-fuzz FuzzSessionRequest).
func FuzzSessionRequest(f *testing.F) {
	seeds := []string{
		// Well-formed session bodies.
		`{"topology":{},"program":"scope A:*\nentry A:1\ncheck"}`,
		`{"topology":{"devices":[]},"program":"x","updated":{},"defaults":{"deadline":"30s","workers":4}}`,
		// Well-formed job bodies.
		``,
		`{}`,
		`{"deadline":"2m","workers":8,"all_violations":true}`,
		`{"updated":{"devices":[]}}`,
		// Malformed shapes the decoder must refuse cleanly.
		`not json`,
		`{"topology":{},"program":"x"} trailing`,
		`{"topology":{},"program":"x","bogus":true}`,
		`{"deadline":"-5s"}`,
		`{"deadline":"2000h"}`,
		`{"workers":2147483647}`,
		`{"backend":"quantum"}`,
		`{"deadline":12}`,
		`{"topology":"not an object","program":3}`,
		`[1,2,3]`,
		`null`,
		"\x00\xff\xfe",
	}
	// The backend, max_retries and per_fec_budget keys are retired: a
	// job body carrying any of them is an unknown field, refused like any
	// other.
	for _, s := range []string{
		`{"deadline":"2m","workers":8,"backend":"sat","all_violations":true}`,
		`{"updated":{"devices":[]},"backend":"pset"}`,
		`{"deadline":"2m","max_retries":3,"workers":8,"all_violations":true}`,
		`{"max_retries":-2}`,
		`{"deadline":"2m","per_fec_budget":100000,"workers":8,"all_violations":true}`,
		`{"per_fec_budget":-1}`,
		`{"per_fec_budget":99999999999999999}`,
	} {
		if _, err := DecodeJobRequest([]byte(s)); err == nil {
			f.Fatalf("job body with a retired key accepted: %s", s)
		}
		seeds = append(seeds, s)
	}
	// The edges of the one-pass decode. onePass says whether the body,
	// when accepted, is read in one pass (its networks read by
	// splitNetworks) or by decodeStrict whole.
	for _, c := range onePassCases {
		if jr, err := DecodeJobRequest([]byte(c.body)); err == nil && (jr.updated != nil) != c.onePass {
			f.Fatalf("job body %s: one-pass %v, want %v", c.body, jr.updated != nil, c.onePass)
		}
		if sr, err := DecodeSessionRequest([]byte(c.body)); err == nil && (sr.topology != nil) != c.onePass {
			f.Fatalf("session body %s: one-pass %v, want %v", c.body, sr.topology != nil, c.onePass)
		}
		seeds = append(seeds, c.body)
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := DecodeSessionRequest(data)
		ref, refErr := strictSession(data)
		sameError(t, "session", err, refErr)
		if err == nil {
			if len(sr.Topology) == 0 || sr.Program == "" {
				t.Fatalf("accepted session request missing required fields: %+v", sr)
			}
			checkOverrides(t, sr.Defaults)
			if sr.Program != ref.Program || !reflect.DeepEqual(sr.Defaults, ref.Defaults) {
				t.Fatalf("session %q: decoded %+v, decodeStrict %+v", data, sr, ref)
			}
			sameNetwork(t, "topology", sr.topology, sr.Topology, ref.Topology)
			sameNetwork(t, "updated", sr.updated, sr.Updated, ref.Updated)
		}

		jr, err := DecodeJobRequest(data)
		jref, refErr := strictJob(data)
		sameError(t, "job", err, refErr)
		if err == nil {
			checkOverrides(t, &jr.JobOverrides)
			if !reflect.DeepEqual(jr.JobOverrides, jref.JobOverrides) {
				t.Fatalf("job %q: decoded %+v, decodeStrict %+v", data, jr.JobOverrides, jref.JobOverrides)
			}
			sameNetwork(t, "updated", jr.updated, jr.Updated, jref.Updated)
		}
	})
}

// net1 is a network in the plain form: two devices, an ACL, a route and
// a link.
const net1 = `{"devices":[{"name":"A","interfaces":[{"name":"1","in_acl":"deny dst 6.0.0.0/8, permit all"},{"name":"2"}],` +
	`"routes":[{"prefix":"6.0.0.0/8","out":"2"}]},{"name":"B","interfaces":[{"name":"1"}]}],"links":[{"from":"A:2","to":"B:1"}]}`

// onePassCases are request bodies at the edges of the one-pass decode.
var onePassCases = []struct {
	body    string
	onePass bool
}{
	// updated first, in the middle, last, alone, and null.
	{`{"updated":` + net1 + `,"deadline":"2m"}`, true},
	{`{"deadline":"2m","updated":` + net1 + `,"workers":2}`, true},
	{`{"workers":2,"all_violations":false,"updated":` + net1 + `}`, true},
	{`{"updated":` + net1 + `}`, true},
	{`{"updated":null}`, true},
	// Whitespace around the value and the keys.
	{" \n{ \"updated\" :\t" + net1 + " \r\n, \"workers\" : 1 }\n", true},
	// A duplicate or case-variant updated: encoding/json matches keys
	// ignoring case and takes the last.
	{`{"updated":` + net1 + `,"updated":{"devices":[]}}`, true},
	{`{"updated":` + net1 + `,"Updated":null}`, true},
	{`{"Updated":null,"updated":` + net1 + `}`, true},
	{`{"UPDATED":` + net1 + `}`, true},
	{`{"updated":` + net1 + `,"updated":{"devices":[{"name":"\u0041"}]}}`, false},
	// A key with an escape, which may spell updated once decoded.
	{`{"upd\u0061ted":` + net1 + `}`, false},
	{`{"deadline":"2m","work\u0065rs":3,"updated":` + net1 + `}`, false},
	// An escaped or non-ASCII string inside the network.
	{`{"updated":{"devices":[{"name":"\u0041","interfaces":[{"name":"1"}]}]}}`, false},
	{`{"updated":{"devices":[{"name":"Ä","interfaces":[{"name":"1"}]}]}}`, false},
	// A string value with escapes beside the network is skipped, not
	// refused.
	{`{"deadline":"2\u006d","updated":` + net1 + `}`, true},
	// Trailing bytes and an unknown key after the network.
	{`{"updated":` + net1 + `} {}`, false},
	{`{"updated":` + net1 + `,"bogus":[1,{"updated":2}]}`, false},
	// A link naming a missing interface: the load fails in building.
	{`{"updated":{"devices":[{"name":"A","interfaces":[{"name":"1"}]}],"links":[{"from":"A:1","to":"B:9"}]}}`, true},
	// Session bodies: both networks read in one pass, or neither.
	{`{"topology":` + net1 + `,"program":"scope A:*\nentry A:1\ncheck","updated":` + net1 + `,"defaults":{"workers":2}}`, true},
	{`{"program":"scope A:*\ncheck","defaults":{"deadline":"1s"},"topology":` + net1 + `}`, true},
	{`{"topology":` + net1 + `,"program":"scope A:*\ncheck","updated":{"devices":[{"name":"\u00c4"}]}}`, false},
	{`{"topology":` + net1 + `,"progr\u0061m":"scope A:*\ncheck"}`, false},
	{`{"topology":` + net1 + `,"program":"x","topology":{"devices":[]}}`, true},
	// Truncated bodies.
	{`{"updated":` + net1, false},
	{`{"deadline":"2m`, false},
	{`{"deadline":"\`, false},
}

// strictSession and strictJob are the reference decodes the one-pass
// decode must agree with: decodeStrict over the whole body.
func strictSession(data []byte) (*SessionRequest, error) {
	var req SessionRequest
	if err := decodeStrict(data, &req); err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

func strictJob(data []byte) (*JobRequest, error) {
	var req JobRequest
	if len(bytes.TrimSpace(data)) == 0 {
		return &req, nil
	}
	if err := decodeStrict(data, &req); err != nil {
		return nil, err
	}
	if err := req.JobOverrides.validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// sameError fails the test unless the one-pass decode and the
// reference decode fail with the same text, or both succeed.
func sameError(t *testing.T, what string, err, want error) {
	t.Helper()
	if errText(err) != errText(want) {
		t.Fatalf("%s: one-pass decode error %q, decodeStrict %q", what, errText(err), errText(want))
	}
}

// sameNetwork fails the test unless a decoded network member holds the
// reference's bytes and loads to the network (or the error) loading the
// reference's bytes gives.
func sameNetwork(t *testing.T, member string, got *topo.Plain, raw, want json.RawMessage) {
	t.Helper()
	if !bytes.Equal(raw, want) || (raw == nil) != (want == nil) {
		t.Fatalf("%s: raw %q, decodeStrict %q", member, raw, want)
	}
	if raw == nil {
		if got != nil {
			t.Fatalf("%s: absent member read %+v", member, got)
		}
		return
	}
	gn, gerr := loadNetwork(raw, got)
	wn, werr := loadNetwork(want, nil)
	if errText(gerr) != errText(werr) {
		t.Fatalf("%s: load error %q, reference %q", member, errText(gerr), errText(werr))
	}
	if gerr == nil {
		if g, w := marshalNetwork(t, gn), marshalNetwork(t, wn); !bytes.Equal(g, w) {
			t.Fatalf("%s: loaded\n%s\nreference\n%s", member, g, w)
		}
	}
}

func marshalNetwork(t *testing.T, n *topo.Network) []byte {
	t.Helper()
	data, err := n.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkOverrides asserts an accepted override set is within the hard
// ceilings and applies cleanly.
func checkOverrides(t *testing.T, o *JobOverrides) {
	t.Helper()
	if o == nil {
		return
	}
	if o.hasDeadline && (o.deadline <= 0 || o.deadline > MaxDeadlineLimit) {
		t.Fatalf("accepted deadline out of range: %v", o.deadline)
	}
	if o.Workers != nil && (*o.Workers < 0 || *o.Workers > MaxWorkersLimit) {
		t.Fatalf("accepted worker count out of range: %d", *o.Workers)
	}
	opts := core.DefaultOptions()
	o.apply(&opts)
	clampOptions(&opts, jobCaps{maxDeadline: time.Minute, maxWorkers: 8})
	if opts.Deadline > time.Minute || opts.Workers > 8 {
		t.Fatalf("clamped options exceed caps: %+v", opts)
	}
}
