package core_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"jinjing/internal/acl"
	"jinjing/internal/core"
	"jinjing/internal/header"
	"jinjing/internal/obs/declog"
	"jinjing/internal/topo"
)

// The decision-ledger contract: a run with Options.DecisionLog attached
// appends exactly one record per top-level primitive call, and that
// record replays to the same outcome the call reported — verdicts,
// per-FEC routes, witnesses, and config fingerprints. These tests pin
// the contract on a deterministic golden case and then fuzz it across
// random networks, edits, and both pipelines.

func openTestLedger(t *testing.T) (*declog.Logger, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "decisions.jsonl")
	l, err := declog.Open(path, declog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return l, path
}

// forensicsVerdicts canonicalizes a result's per-FEC forensics as
// "fec:verdict:route" lines, sorted.
func forensicsVerdicts(fs []core.FECForensics) []string {
	out := make([]string, 0, len(fs))
	for _, f := range fs {
		out = append(out, fmt.Sprintf("%d:%s:%s", f.FEC, f.Verdict, f.Route))
	}
	sort.Strings(out)
	return out
}

// ledgerVerdicts canonicalizes a record's FEC log the same way.
func ledgerVerdicts(ds []declog.FECDecision) []string {
	out := make([]string, 0, len(ds))
	for _, d := range ds {
		out = append(out, fmt.Sprintf("%d:%s:%s", d.FEC, d.Verdict, d.Route))
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// replayCheckRecord asserts one ledger record reproduces a check
// result exactly.
func replayCheckRecord(t *testing.T, rec declog.Record, res *core.CheckResult) {
	t.Helper()
	if rec.Primitive != "check" || rec.Type != "decision" {
		t.Fatalf("record header wrong: %+v", rec)
	}
	if rec.Consistent == nil || *rec.Consistent != res.Consistent {
		t.Fatalf("consistent mismatch: rec=%+v res=%v", rec.Consistent, res.Consistent)
	}
	if rec.Complete == nil || *rec.Complete != res.Complete {
		t.Fatalf("complete mismatch: rec=%+v res=%v", rec.Complete, res.Complete)
	}
	if rec.FECs != res.FECs || rec.SolvedFECs != res.SolvedFECs {
		t.Fatalf("counts mismatch: rec fecs=%d/%d, res %d/%d",
			rec.FECs, rec.SolvedFECs, res.FECs, res.SolvedFECs)
	}
	if got, want := ledgerVerdicts(rec.FECLog), forensicsVerdicts(res.Forensics); !equalStrings(got, want) {
		t.Fatalf("per-FEC verdict set diverged\nledger: %v\nresult: %v", got, want)
	}
	if len(rec.Witnesses) != len(res.Violations) {
		t.Fatalf("witness count %d != violations %d", len(rec.Witnesses), len(res.Violations))
	}
	for i, w := range rec.Witnesses {
		if w.Packet != res.Violations[i].Packet.String() {
			t.Fatalf("witness %d packet %q != violation packet %q",
				i, w.Packet, res.Violations[i].Packet.String())
		}
	}
	if len(rec.Unknown) != len(res.Unknown) {
		t.Fatalf("unknown count %d != result %d", len(rec.Unknown), len(res.Unknown))
	}
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	if !hex16.MatchString(rec.ConfigBefore) || !hex16.MatchString(rec.ConfigAfter) {
		t.Fatalf("config fingerprints malformed: %q / %q", rec.ConfigBefore, rec.ConfigAfter)
	}
	if rec.WallNS <= 0 {
		t.Fatalf("wall time not stamped: %+v", rec)
	}
}

// TestLedgerCheckGolden pins the ledger on a deterministic case, both
// an identical-snapshot check (fingerprints must match) and a
// violating edit (witnesses must replay).
func TestLedgerCheckGolden(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	before, scope, nPref := fuzzNet(r, true)

	// Identical snapshots: consistent, and the two fingerprints agree.
	l, path := openTestLedger(t)
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	opts.DecisionLog = l
	res := core.New(before, before.Clone(), scope, opts).Check()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := declog.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("want 1 record, got %d", len(recs))
	}
	replayCheckRecord(t, recs[0], res)
	if !res.Consistent {
		t.Fatal("identical snapshots must be consistent")
	}
	if recs[0].ConfigBefore != recs[0].ConfigAfter {
		t.Fatalf("identical snapshots must fingerprint identically: %q != %q",
			recs[0].ConfigBefore, recs[0].ConfigAfter)
	}

	// Keep editing until a violation shows up, then check the ledger
	// carries it.
	for {
		after := before.Clone()
		fuzzEdit(r, after, nPref, true)
		l, path = openTestLedger(t)
		opts.DecisionLog = l
		res = core.New(before, after, scope, opts).Check()
		l.Close()
		recs, _, err = declog.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 {
			t.Fatalf("want 1 record, got %d", len(recs))
		}
		replayCheckRecord(t, recs[0], res)
		if res.Consistent {
			continue
		}
		if recs[0].ConfigBefore == recs[0].ConfigAfter {
			t.Fatal("a violating edit must change the after fingerprint")
		}
		// Violating FECs in the log line up with the witnesses.
		var violating []int
		for _, d := range recs[0].FECLog {
			if d.Verdict == "violating" {
				violating = append(violating, d.FEC)
			}
		}
		if len(violating) != len(recs[0].Witnesses) {
			t.Fatalf("violating FECs %v vs %d witnesses", violating, len(recs[0].Witnesses))
		}
		for i, w := range recs[0].Witnesses {
			if w.FEC != violating[i] {
				t.Fatalf("witness %d attributed to FEC %d, want %d", i, w.FEC, violating[i])
			}
		}
		break
	}
}

// TestLedgerFuzzReplay is the fuzz lane: across random networks,
// edits, option toggles, and both routes (a lowered cube budget splits
// most FECs on every third case), the appended record must
// replay to the exact per-FEC verdict set the run reported.
func TestLedgerFuzzReplay(t *testing.T) {
	cases := 60
	if testing.Short() {
		cases = 10
	}
	r := rand.New(rand.NewSource(31337))
	inconsistent, solved := 0, 0
	for iter := 0; iter < cases; iter++ {
		before, scope, nPref := fuzzNet(r, true)
		after := before.Clone()
		fuzzEdit(r, after, nPref, true)

		l, path := openTestLedger(t)
		opts := core.DefaultOptions()
		opts.FindAllViolations = iter%2 == 0
		opts.UseDifferential = iter%3 != 0
		restore := func() {}
		if iter%3 == 1 {
			restore = core.SetCubeBudget(t, 2) // splits most decided FECs
		}
		opts.DecisionLog = l

		e := core.New(before, after, scope, opts)
		var res *core.CheckResult
		if iter%2 == 0 {
			res = checkWorkers(e, 4)
		} else {
			res = e.Check()
		}
		restore()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		recs, _, err := declog.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 {
			t.Fatalf("case %d: want exactly 1 record per check, got %d", iter, len(recs))
		}
		replayCheckRecord(t, recs[0], res)
		if !res.Consistent {
			inconsistent++
		}
		for _, d := range recs[0].FECLog {
			if d.SolveNS > 0 {
				solved++
			}
			switch d.Route {
			case "skip", "cache", "pset", "pset-split":
			default:
				t.Fatalf("case %d: unexpected route %q", iter, d.Route)
			}
			if d.CacheHit != (d.Route == "cache") {
				t.Fatalf("case %d: cache_hit=%v on route %q", iter, d.CacheHit, d.Route)
			}
		}
	}
	if inconsistent == 0 {
		t.Fatal("fuzz generator produced no inconsistent case")
	}
	if solved == 0 {
		t.Fatal("no ledger entry ever recorded solver time")
	}
}

// TestLedgerFixSingleRecord checks fix logs one record covering its
// internal verification checks (no double-logging from derived
// engines), carrying the plan actions verbatim.
func TestLedgerFixSingleRecord(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for iter := 0; ; iter++ {
		if iter > 200 {
			t.Fatal("no fixable inconsistent case found")
		}
		before, scope, nPref := fuzzNet(r, false)
		after := before.Clone()
		fuzzEdit(r, after, nPref, false)

		mk := func(l *declog.Logger) *core.Engine {
			opts := core.DefaultOptions()
			opts.DecisionLog = l
			e := core.New(before, after, scope, opts)
			for _, d := range before.SortedDevices() {
				for _, i := range d.SortedInterfaces() {
					e.Allow = append(e.Allow,
						topo.ACLBinding{Iface: i, Dir: topo.In},
						topo.ACLBinding{Iface: i, Dir: topo.Out})
				}
			}
			return e
		}
		if mk(nil).Check().Consistent {
			continue
		}

		l, path := openTestLedger(t)
		res, err := mk(l).Fix()
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		recs, _, err := declog.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 {
			t.Fatalf("fix must log exactly 1 record (derived engines stay silent), got %d", len(recs))
		}
		rec := recs[0]
		if rec.Primitive != "fix" {
			t.Fatalf("primitive: %q", rec.Primitive)
		}
		if rec.Verified == nil || *rec.Verified != res.Verified {
			t.Fatalf("verified mismatch: %+v vs %v", rec.Verified, res.Verified)
		}
		if len(rec.Actions) != len(res.Actions) {
			t.Fatalf("action count %d != %d", len(rec.Actions), len(res.Actions))
		}
		for i, a := range res.Actions {
			if rec.Actions[i] != a.String() {
				t.Fatalf("action %d: %q != %q", i, rec.Actions[i], a.String())
			}
		}
		if rec.Neighborhoods != len(res.Neighborhoods) {
			t.Fatalf("neighborhoods %d != %d", rec.Neighborhoods, len(res.Neighborhoods))
		}
		return
	}
}

// TestLedgerGenerateRefusal checks a generate call that fails before it
// has solved anything still leaves its record: an ACL whose rules cut
// sources and ports into more classes than deriveClasses will enumerate
// (a hundred source prefixes × two hundred port atoms on either side, past
// the 2,000,000 bound before any destination multiplies them) makes
// generate refuse, and the ledger holds that one refusal.
func TestLedgerGenerateRefusal(t *testing.T) {
	l, path := openTestLedger(t)
	opts := core.DefaultOptions()
	opts.DecisionLog = l
	e, sources := migrationEngine(opts)
	wide := &acl.ACL{Default: acl.Permit}
	for i := 0; i < 100; i++ {
		wide.Rules = append(wide.Rules, acl.Rule{Action: acl.Deny, Match: header.Match{
			Src:     header.Prefix{Addr: uint32(i+1) << 24, Len: 8},
			SrcPort: header.PortRange{Lo: uint16(4*i + 2), Hi: uint16(4*i + 3)},
			DstPort: header.PortRange{Lo: uint16(4 * i), Hi: uint16(4*i + 1)},
			Proto:   header.AnyProto,
		}})
	}
	sources[0].Iface.SetACL(topo.In, wide)

	res, err := e.Generate(sources)
	if err == nil || res != nil || !strings.Contains(err.Error(), "class space too large") {
		t.Fatalf("generate over a 4M-class space: result %v, error %v", res, err)
	}
	l.Close()
	recs, _, rerr := declog.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(recs) != 1 || recs[0].Primitive != "generate" || recs[0].Error != err.Error() {
		t.Fatalf("want one generate record carrying %q, got %+v", err, recs)
	}
}

// TestForensicsGatedOff pins the inert default: without Forensics or a
// ledger, CheckResult.Forensics stays nil; with Forensics alone it
// materializes and covers every resolved FEC.
func TestForensicsGatedOff(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	before, scope, nPref := fuzzNet(r, true)
	after := before.Clone()
	fuzzEdit(r, after, nPref, true)

	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	if res := core.New(before, after, scope, opts).Check(); res.Forensics != nil {
		t.Fatalf("forensics must stay nil when disabled, got %d entries", len(res.Forensics))
	}

	opts.Forensics = true
	res := core.New(before, after, scope, opts).Check()
	if len(res.Forensics) != res.FECs {
		t.Fatalf("forensics entries %d != FECs %d (all-violations check resolves every FEC)",
			len(res.Forensics), res.FECs)
	}
	seen := map[int]bool{}
	for _, f := range res.Forensics {
		if seen[f.FEC] {
			t.Fatalf("duplicate forensics entry for FEC %d", f.FEC)
		}
		seen[f.FEC] = true
		if f.Verdict != "consistent" && f.Verdict != "violating" && f.Verdict != "unknown" {
			t.Fatalf("bad verdict %q", f.Verdict)
		}
	}
}
