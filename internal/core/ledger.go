package core

import (
	"fmt"
	"sort"
	"time"

	"jinjing/internal/obs/declog"
	"jinjing/internal/topo"
)

// Decision-ledger glue: when Options.DecisionLog is set, every
// top-level check/fix/generate call appends one declog.Record capturing
// what was decided and why — the config fingerprints the decision was
// computed over, the per-FEC forensics, the witnesses, and the
// wall/CPU cost. Everything here is inert when the logger is
// nil: no fingerprinting, no counter reads, no clock reads beyond what
// the primitives already do.

// ledgerStart snapshots the cost baselines at call entry.
type ledgerStart struct {
	t0   time.Time
	cpu0 int64
}

// ledgerBegin returns the call's cost baseline, or nil when no ledger
// is attached.
func (e *Engine) ledgerBegin() *ledgerStart {
	if e.Opts.DecisionLog == nil {
		return nil
	}
	return &ledgerStart{t0: time.Now(), cpu0: declog.ProcessCPU()}
}

// ledgerFinish stamps the cost fields of a record against the baseline.
func (e *Engine) ledgerFinish(ls *ledgerStart, rec *declog.Record) {
	rec.WallNS = time.Since(ls.t0).Nanoseconds()
	if cpu := declog.ProcessCPU(); cpu > 0 {
		rec.CPUNS = cpu - ls.cpu0
	}
	e.Opts.DecisionLog.Append(rec) //nolint:errcheck // auditing is best-effort
}

// networkFingerprint digests the ACL content of a snapshot within the
// engine's scope: FNV-1a over the sorted binding IDs and their ACL
// structural fingerprints. Two snapshots with identical ACLs at
// identical bindings fingerprint identically; any rule edit changes it.
func (e *Engine) networkFingerprint(n *topo.Network) string {
	if n == nil {
		return ""
	}
	ids := make([]string, 0, 16)
	fps := map[string]uint64{}
	for _, b := range n.ACLGroup(e.Scope) {
		id := b.ID()
		if _, ok := fps[id]; ok {
			continue
		}
		ids = append(ids, id)
		fps[id] = b.Iface.ACL(b.Dir).Fingerprint()
	}
	sort.Strings(ids)
	h := uint64(offset64)
	mix := func(w uint64) {
		h ^= w
		h *= prime64
	}
	for _, id := range ids {
		for i := 0; i < len(id); i++ {
			mix(uint64(id[i]))
		}
		mix(fps[id])
	}
	return fmt.Sprintf("%016x", h)
}

// fecDecisions converts check forensics into ledger entries, splitting
// out the unknown subset (reported separately for quick triage).
func fecDecisions(fs []FECForensics) (all, unknown []declog.FECDecision) {
	for _, f := range fs {
		d := declog.FECDecision{
			FEC:      f.FEC,
			Verdict:  f.Verdict,
			Route:    f.Route,
			CacheHit: f.CacheHit,
			SolveNS:  f.SolveNS,
			Reason:   f.Reason,
		}
		all = append(all, d)
		if f.Verdict == "unknown" {
			unknown = append(unknown, d)
		}
	}
	return all, unknown
}

// ledgerWitnesses renders the reported violations.
func ledgerWitnesses(res *CheckResult) []declog.Witness {
	out := make([]declog.Witness, 0, len(res.Violations))
	for _, v := range res.Violations {
		w := declog.Witness{FEC: v.FEC, Packet: v.Packet.String()}
		for _, c := range v.Classes {
			w.Classes = append(w.Classes, c.String())
		}
		for _, p := range v.Paths {
			w.Paths = append(w.Paths, p.String())
		}
		out = append(out, w)
	}
	return out
}

// logCheckDecision appends the check call's ledger record. No-op when
// ls is nil (no ledger attached).
func (e *Engine) logCheckDecision(ls *ledgerStart, res *CheckResult) {
	if ls == nil {
		return
	}
	consistent, complete := res.Consistent, res.Complete
	rec := &declog.Record{
		Primitive:    "check",
		ConfigBefore: e.networkFingerprint(e.Before),
		ConfigAfter:  e.networkFingerprint(e.After),
		Consistent:   &consistent,
		Complete:     &complete,
		FECs:         res.FECs,
		SolvedFECs:   res.SolvedFECs,
		Witnesses:    ledgerWitnesses(res),
	}
	rec.PeakHeapBytes = res.PeakHeapBytes
	rec.FECLog, rec.Unknown = fecDecisions(res.Forensics)
	e.ledgerFinish(ls, rec)
}

// logFixDecision appends the fix call's ledger record: the plan (or the
// refusal) and its verification outcome.
func (e *Engine) logFixDecision(ls *ledgerStart, res *FixResult, err error) {
	if ls == nil {
		return
	}
	rec := &declog.Record{
		Primitive:    "fix",
		ConfigBefore: e.networkFingerprint(e.Before),
		ConfigAfter:  e.networkFingerprint(e.After),
	}
	if res != nil {
		verified := res.Verified
		rec.Verified = &verified
		rec.Neighborhoods = len(res.Neighborhoods)
		rec.Unfixable = len(res.Unfixable)
		for _, a := range res.Actions {
			rec.Actions = append(rec.Actions, a.String())
		}
	}
	if err != nil {
		rec.Error = err.Error()
	}
	e.ledgerFinish(ls, rec)
}

// logGenerateDecision appends the generate call's ledger record.
func (e *Engine) logGenerateDecision(ls *ledgerStart, res *GenerateResult, err error) {
	if ls == nil {
		return
	}
	rec := &declog.Record{
		Primitive:    "generate",
		ConfigBefore: e.networkFingerprint(e.Before),
	}
	if res != nil {
		verified := res.Verified
		rec.Verified = &verified
		rec.Classes = res.Classes
		rec.AECs = res.AECs
		rec.Rules = res.RulesGenerated
		rec.ConfigAfter = e.networkFingerprint(res.Generated)
	}
	if err != nil {
		rec.Error = err.Error()
	}
	e.ledgerFinish(ls, rec)
}
