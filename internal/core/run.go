package core

import (
	"context"
	"fmt"
	"io"
	"sort"

	"jinjing/internal/lai"
	"jinjing/internal/obs"
	"jinjing/internal/topo"
)

// Report is the outcome of running a full LAI program: one entry per
// command executed.
type Report struct {
	Checks    []*CheckResult
	Fixes     []*FixResult
	Generates []*GenerateResult
	// Final is the network snapshot after the last mutating command (the
	// fixed or generated network), or the After snapshot when only checks
	// ran.
	Final *topo.Network
}

// FromResolved builds an engine from a resolved LAI program.
func FromResolved(r *lai.Resolved, opts Options) *Engine {
	e := New(r.Before, r.After, r.Scope, opts)
	e.Allow = r.Allow
	for _, c := range r.Controls {
		e.Controls = append(e.Controls, Control{
			From: NewIfaceSet(c.From...), To: NewIfaceSet(c.To...),
			Mode: c.Mode, Match: c.Match,
		})
	}
	return e
}

// Run executes the resolved program's commands in order. For generate,
// the sources are the modify-to-permit-all bindings (the §5 migration
// convention).
func Run(r *lai.Resolved, opts Options) (*Report, error) {
	return RunContext(context.Background(), r, opts)
}

// RunContext is Run under a cancellation scope: ctx (plus
// Options.Deadline, applied per primitive call) bounds every command.
// A check left incomplete is reported in its CheckResult (see Print's
// UNDECIDED line); a fix or generate blocked by unknown verdicts
// aborts the run with an *ErrUnknownVerdicts. A run installs no verdict
// cache: it checks one update, and Options.Verdicts is used as given.
func RunContext(ctx context.Context, r *lai.Resolved, opts Options) (*Report, error) {
	e := FromResolved(r, opts)
	rep := &Report{Final: r.After}
	root := opts.Obs.StartSpan("run", obs.KV("commands", len(r.Commands)))
	defer root.End()
	e.parentSpan = root
	for _, cmd := range r.Commands {
		switch cmd {
		case lai.Check:
			rep.Checks = append(rep.Checks, e.CheckContext(ctx))
		case lai.Fix:
			fr, err := e.FixContext(ctx)
			if err != nil {
				return nil, err
			}
			rep.Fixes = append(rep.Fixes, fr)
			rep.Final = fr.Fixed
		case lai.Generate:
			// The §5 migration convention: generate's source interfaces
			// are the modify-to-permit-all targets. Other modify kinds
			// change ACLs the AEC machinery would still read as original,
			// so the combination is rejected rather than silently wrong.
			if len(r.Cleared) != len(r.Modified) {
				return nil, fmt.Errorf("core: generate supports only 'modify ... to permit-all' requirements; %d of %d modified bindings use another form",
					len(r.Modified)-len(r.Cleared), len(r.Modified))
			}
			gr, err := e.GenerateContext(ctx, r.Cleared)
			if err != nil {
				return nil, err
			}
			rep.Generates = append(rep.Generates, gr)
			if gr.Generated != nil {
				rep.Final = gr.Generated
			}
		default:
			return nil, fmt.Errorf("core: unknown command %v", cmd)
		}
	}
	return rep, nil
}

// Print writes a human-readable summary of the report.
func (rep *Report) Print(w io.Writer) {
	for _, c := range rep.Checks {
		switch {
		case c.Consistent && c.Complete:
			fmt.Fprintf(w, "check: consistent (%d FECs, %d solved)\n", c.FECs, c.SolvedFECs)
			continue
		case !c.Complete:
			// Partial result: violations found so far plus the FECs left
			// undecided (cancelled), in canonical FEC order.
			fmt.Fprintf(w, "check: UNDECIDED (%d FECs, %d solved, %d unknown)\n",
				c.FECs, c.SolvedFECs, len(c.Unknown))
		default:
			fmt.Fprintf(w, "check: INCONSISTENT (%d FECs, %d solved)\n", c.FECs, c.SolvedFECs)
		}
		for _, v := range c.Violations {
			fmt.Fprintf(w, "  counterexample %v\n", v.Packet)
			for _, p := range v.Paths {
				fmt.Fprintf(w, "    decision changed on %v\n", p)
			}
		}
		for _, u := range c.Unknown {
			fmt.Fprintf(w, "  undecided FEC %v: %s\n", u.Classes, u.Reason)
		}
	}
	for _, f := range rep.Fixes {
		fmt.Fprintf(w, "fix: %d regions, %d rules added, verified=%v\n",
			len(f.Regions), len(f.Actions), f.Verified)
		for _, a := range f.Actions {
			fmt.Fprintf(w, "  %s\n", a)
		}
		for _, r := range f.Unfixable {
			for _, c := range r {
				fmt.Fprintf(w, "  UNFIXABLE region %v\n", c)
			}
		}
	}
	for _, g := range rep.Generates {
		if len(g.Unsolvable) > 0 {
			fmt.Fprintf(w, "generate: NO VALID PLAN (%d unsolvable classes)\n", len(g.Unsolvable))
			continue
		}
		fmt.Fprintf(w, "generate: %d classes, %d AECs (%d DEC-split), %d rules, verified=%v\n",
			g.Classes, g.AECs, g.DECSplitAECs, g.RulesAfterSimplify, g.Verified)
		ids := make([]string, 0, len(g.ACLs))
		for id := range g.ACLs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Fprintf(w, "  %s: %s\n", id, g.ACLs[id])
		}
	}
}
