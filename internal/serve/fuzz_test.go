package serve

import (
	"testing"
	"time"

	"jinjing/internal/core"
)

// FuzzSessionRequest fuzzes the daemon's strict request decoding — the
// exact bytes an untrusted client controls. Invariants: decoding never
// panics; anything accepted satisfies the documented validation
// ceilings; and applying accepted overrides onto engine options never
// produces an out-of-range knob. Run open-endedly in the weekly CI
// sweep (-fuzz FuzzSessionRequest).
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
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if sr, err := DecodeSessionRequest(data); err == nil {
			if len(sr.Topology) == 0 || sr.Program == "" {
				t.Fatalf("accepted session request missing required fields: %+v", sr)
			}
			checkOverrides(t, sr.Defaults)
		}
		if jr, err := DecodeJobRequest(data); err == nil {
			checkOverrides(t, &jr.JobOverrides)
		}
	})
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
