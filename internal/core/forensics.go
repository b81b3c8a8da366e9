package core

// Per-FEC solve forensics: every check generation records, per FEC, the
// route that established its verdict (differential skip, verdict-cache
// replay, the packet-set algebra on the FEC's flip region whole, or on
// the pieces of a region that overflowed the cube budget) and the time
// the decision took. The
// slices live on the generation's checkCtx and cost two words per FEC;
// materializing them into CheckResult.Forensics happens only when
// Options.Forensics is set (or a decision ledger is attached), so the
// default path stays allocation- and output-inert.

// fecRoute names how a FEC's verdict was established within a
// generation. Routes describe the first resolution: a warm re-Check on
// an unchanged generation reports the route of the call that resolved
// the FEC.
type fecRoute uint8

const (
	routeNone  fecRoute = iota
	routeSkip           // Theorem 4.1 differential fast path
	routeCache          // verdict-cache replay under a full key match
	routePset           // packet-set algebra decision on the flip region whole
	routeSplit          // the flip region overflowed; decided piece by piece
)

func (r fecRoute) String() string {
	switch r {
	case routeSkip:
		return "skip"
	case routeCache:
		return "cache"
	case routePset:
		return "pset"
	case routeSplit:
		return "pset-split"
	}
	return "none"
}

// FECForensics is one examined FEC's solve forensics.
type FECForensics struct {
	// FEC is the canonical FEC index.
	FEC int `json:"fec"`
	// Verdict is "consistent", "violating", or "unknown".
	Verdict string `json:"verdict"`
	// Route names how the verdict was established; see fecRoute.
	Route string `json:"route"`
	// CacheHit reports a replayed verdict (route "cache").
	CacheHit bool `json:"cache_hit,omitempty"`
	// SolveNS is the set algebra's decision time in nanoseconds, every
	// piece of a split region included (accumulated across the calls that
	// tried the FEC). Zero for skipped and replayed FECs.
	SolveNS int64 `json:"solve_ns,omitempty"`
	// Reason explains an "unknown" verdict.
	Reason string `json:"reason,omitempty"`
}

// verdictString maps a resolved fecState to its forensics verdict.
func verdictString(st fecState) string {
	switch st {
	case fecViolating:
		return "violating"
	case fecUnknown:
		return "unknown"
	}
	return "consistent"
}

// forensicsList materializes the generation's per-FEC forensics for the
// FECs the scan examined ([0, last] with a resolved state; an early
// first-violation stop leaves the tail unexamined and unreported).
func (ctx *checkCtx) forensicsList(last int) []FECForensics {
	var out []FECForensics
	for i := 0; i <= last && i < len(ctx.states); i++ {
		st := ctx.states[i]
		if st == fecUnresolved {
			continue
		}
		f := FECForensics{
			FEC:      i,
			Verdict:  verdictString(st),
			Route:    ctx.routes[i].String(),
			CacheHit: ctx.routes[i] == routeCache,
		}
		if ctx.solveNS != nil {
			f.SolveNS = ctx.solveNS[i]
		}
		if st == fecUnknown {
			f.Reason = ctx.unknownReason[i]
		}
		out = append(out, f)
	}
	return out
}

// slowestForensics returns the entry with the largest SolveNS, or nil.
func slowestForensics(fs []FECForensics) *FECForensics {
	var best *FECForensics
	for i := range fs {
		if fs[i].SolveNS > 0 && (best == nil || fs[i].SolveNS > best.SolveNS) {
			best = &fs[i]
		}
	}
	return best
}
