package jinjing

import (
	"context"
	"io"

	"jinjing/internal/acl"
	"jinjing/internal/core"
	"jinjing/internal/header"
	"jinjing/internal/lai"
	"jinjing/internal/netgen"
	"jinjing/internal/obs"
	"jinjing/internal/obs/declog"
	"jinjing/internal/obs/stats"
	"jinjing/internal/pset"
	daemon "jinjing/internal/serve"
	"jinjing/internal/topo"
)

// This file is the library's public API: a curated facade over the
// internal packages. Everything needed to model a network, express an
// intent in LAI, and run check / fix / generate is re-exported here, so
// applications only import "jinjing".

// Network modeling.
type (
	// Network is the modeled network: devices, interfaces, links, FIBs.
	Network = topo.Network
	// Device is one router.
	Device = topo.Device
	// Interface is one interface of a device with optional per-direction ACLs.
	Interface = topo.Interface
	// Direction selects the ingress or egress ACL attachment of an interface.
	Direction = topo.Direction
	// Scope is a management scope Ω.
	Scope = topo.Scope
	// Path is a border-to-border route through a scope.
	Path = topo.Path
	// ACLBinding is an (interface, direction) ACL attachment point.
	ACLBinding = topo.ACLBinding
)

// Directions.
const (
	In  = topo.In
	Out = topo.Out
)

// NewNetwork returns an empty network.
func NewNetwork() *Network { return topo.NewNetwork() }

// NewScope builds a management scope over the named devices.
func NewScope(devices ...string) *Scope { return topo.NewScope(devices...) }

// ACLs and packet headers.
type (
	// ACL is a first-match rule list with a default action.
	ACL = acl.ACL
	// Rule is one ACL entry.
	Rule = acl.Rule
	// Action is permit or deny.
	Action = acl.Action
	// Packet is a concrete 5-tuple packet header.
	Packet = header.Packet
	// Prefix is an IPv4 prefix.
	Prefix = header.Prefix
	// Match is a 5-tuple predicate.
	Match = header.Match
	// PortRange is an inclusive port range.
	PortRange = header.PortRange
	// ProtoMatch is an inclusive protocol-number range.
	ProtoMatch = header.ProtoMatch
)

// Wildcard field values for building matches.
var (
	// MatchAll matches every packet.
	MatchAll = header.MatchAll
	// AnyPort matches every port.
	AnyPort = header.AnyPort
	// AnyProto matches every protocol number.
	AnyProto = header.AnyProto
)

// DstMatch returns a Match constraining only the destination prefix.
func DstMatch(p Prefix) Match { return header.DstMatch(p) }

// Actions.
const (
	Permit = acl.Permit
	Deny   = acl.Deny
)

// ParseACL parses the textual ACL syntax, e.g.
// "deny dst 1.0.0.0/8, permit all".
func ParseACL(text string) (*ACL, error) { return acl.Parse(text) }

// MustParseACL is ParseACL that panics on error.
func MustParseACL(text string) *ACL { return acl.MustParse(text) }

// PermitAll returns an ACL permitting every packet.
func PermitAll() *ACL { return acl.PermitAll() }

// EquivalentACLs reports whether two ACLs have the same decision model,
// decided exactly by comparing their permitted packet sets.
func EquivalentACLs(a, b *ACL) bool { return pset.EquivalentACLs(a, b) }

// SimplifyACL removes redundant rules while preserving the decision model.
// Each rule's redundancy is decided on packet sets; a rule whose decision
// outgrows the set algebra's budget is kept.
func SimplifyACL(a *ACL) *ACL {
	s, _ := pset.Simplify(a)
	return s
}

// ParsePrefix parses "a.b.c.d/len" (or "all").
func ParsePrefix(s string) (Prefix, error) { return header.ParsePrefix(s) }

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix { return header.MustParsePrefix(s) }

// The LAI intent language.
type (
	// Program is a parsed LAI program (region, requirement, command).
	Program = lai.Program
	// Resolved is a program bound to a concrete network.
	Resolved = lai.Resolved
	// ResolveOptions supplies the out-of-band inputs of a program.
	ResolveOptions = lai.ResolveOptions
)

// ParseProgram parses LAI source (see the Figure 2 grammar).
func ParseProgram(src string) (*Program, error) { return lai.Parse(src) }

// ResolveProgram binds a program to a network.
func ResolveProgram(p *Program, net *Network, opts ResolveOptions) (*Resolved, error) {
	return lai.Resolve(p, net, opts)
}

// The engine.
type (
	// Engine runs the check / fix / generate primitives.
	Engine = core.Engine
	// Options configures the engine: the paper's two optimization
	// switches, resource limits, workers and observability.
	Options = core.Options
	// CheckResult reports a check outcome.
	CheckResult = core.CheckResult
	// Violation is one reachability inconsistency: a counterexample
	// packet, its FEC and traffic classes, and the paths that changed
	// decision.
	Violation = core.Violation
	// FixResult reports a fixing plan.
	FixResult = core.FixResult
	// FixAction is one fixing-plan entry: a rule prepended to a binding.
	FixAction = core.FixAction
	// GenerateResult reports a synthesis outcome.
	GenerateResult = core.GenerateResult
	// Report is the outcome of running a whole LAI program.
	Report = core.Report
	// Control is a resolved §6 reachability intent. Its From and To are
	// sets over the engine's Before network (see NewIfaceSet).
	Control = core.Control
	// IfaceSet is a set of one network's interfaces.
	IfaceSet = core.IfaceSet
	// VerdictCache caches per-FEC check verdicts across engines and
	// snapshots, making a session's re-checks after edits incremental
	// (set Options.Verdicts; Run installs none).
	VerdictCache = core.VerdictCache
	// CacheStats reports one call's verdict-cache, backend and
	// change-impact activity (see CheckResult.Stats / FixResult.Stats).
	CacheStats = core.CacheStats
	// UnknownFEC identifies one FEC whose verdict could not be
	// established within a call's deadline (see CheckResult.Unknown and
	// Options.Deadline).
	UnknownFEC = core.UnknownFEC
	// ErrUnknownVerdicts is returned by fix and generate when unknown
	// verdicts block the plan; it names the blocking FECs or AECs.
	ErrUnknownVerdicts = core.ErrUnknownVerdicts
	// ErrOverlapBound is returned by generate when one AEC's overlap
	// field expands past the per-row synthesis bound; it names the AEC.
	ErrOverlapBound = core.ErrOverlapBound
)

// Control modes.
const (
	Isolate  = core.Isolate
	Open     = core.Open
	Maintain = core.Maintain
)

// NewIfaceSet returns the set of the given interfaces, all of one
// network: a Control's From or To.
func NewIfaceSet(ifaces ...*Interface) IfaceSet { return core.NewIfaceSet(ifaces...) }

// DefaultOptions returns the paper's full optimization configuration.
func DefaultOptions() Options { return core.DefaultOptions() }

// NewVerdictCache returns an empty cross-engine FEC verdict cache.
// Share one via Options.Verdicts across the engines of a session to
// make re-checks after edits incremental; Run, which checks each update
// once, installs none.
func NewVerdictCache() *VerdictCache { return core.NewVerdictCache() }

// NewEngine builds an engine checking before against after within scope.
func NewEngine(before, after *Network, scope *Scope, opts Options) *Engine {
	return core.New(before, after, scope, opts)
}

// Run executes a resolved LAI program's commands in order.
func Run(r *Resolved, opts Options) (*Report, error) { return core.Run(r, opts) }

// RunContext is Run under a cancellation scope: ctx (plus
// Options.Deadline, applied per primitive call) bounds every command.
func RunContext(ctx context.Context, r *Resolved, opts Options) (*Report, error) {
	return core.RunContext(ctx, r, opts)
}

// Observability (set Options.Obs to instrument a run; see internal/obs).
type (
	// Observer bundles the tracing, metrics, and progress facets threaded
	// through the engine via Options.Obs. A nil Observer is a no-op.
	Observer = obs.Observer
	// Tracer emits hierarchical spans to a sink.
	Tracer = obs.Tracer
	// Span is one timed region of a run.
	Span = obs.Span
	// TraceSink receives finished spans and metrics snapshots.
	TraceSink = obs.Sink
	// Metrics is a registry of counters, gauges, and histograms.
	Metrics = obs.Metrics
	// MetricsSnapshot is a point-in-time copy of a Metrics registry.
	MetricsSnapshot = obs.Snapshot
	// Progress throttles N/M task reporting to a writer.
	Progress = obs.Progress
)

// NewObserver bundles observability facets; pass any subset, nil the rest.
func NewObserver(t *Tracer, m *Metrics, p *Progress) *Observer {
	return obs.NewObserver(t, m, p)
}

// NewTracer returns a tracer emitting to sink (nil sink disables tracing).
func NewTracer(sink TraceSink) *Tracer { return obs.NewTracer(sink) }

// NewJSONLTraceSink writes one JSON object per span (and per metrics
// snapshot) to w.
func NewJSONLTraceSink(w io.Writer) TraceSink { return obs.NewJSONLSink(w) }

// NewTextTraceSink writes indented human-readable span lines to w.
func NewTextTraceSink(w io.Writer) TraceSink { return obs.NewTextSink(w) }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// NewProgress returns a progress reporter writing to w (nil disables).
func NewProgress(w io.Writer) *Progress { return obs.NewProgress(w) }

// MultiTraceSink fans finished spans and metrics snapshots out to every
// non-nil sink (e.g. a JSONL file plus a live EventHub).
func MultiTraceSink(sinks ...TraceSink) TraceSink { return obs.MultiSink(sinks...) }

// Forensics and the decision ledger (set Options.Forensics /
// Options.DecisionLog; see internal/obs/declog).
type (
	// FECForensics records how one FEC's verdict was reached during a
	// check: the resolution route, cache hits, and solver time (see
	// CheckResult.Forensics, populated when Options.Forensics is set or a
	// DecisionLog is attached).
	FECForensics = core.FECForensics
	// DecisionLogger appends one JSONL record per check/fix/generate call
	// to a size-rotated audit file (set Options.DecisionLog).
	DecisionLogger = declog.Logger
	// DecisionRecord is one ledger entry: the decision, the config
	// fingerprints it was computed over, per-FEC forensics, witnesses,
	// and cost.
	DecisionRecord = declog.Record
	// DecisionLogOptions tunes ledger rotation.
	DecisionLogOptions = declog.Options
)

// OpenDecisionLog opens (appending) a decision ledger at path.
func OpenDecisionLog(path string, opts DecisionLogOptions) (*DecisionLogger, error) {
	return declog.Open(path, opts)
}

// ParseDecisionLog decodes the JSONL records of a ledger file's bytes.
// Damaged lines — a final line torn by a crash mid-append, or bit rot
// anywhere — are skipped and counted in the second return rather than
// failing the whole replay.
func ParseDecisionLog(data []byte) ([]DecisionRecord, int) { return declog.Parse(data) }

// Live telemetry over HTTP (see internal/obs/stats).
type (
	// StatsServer serves /metrics (Prometheus text format), /healthz,
	// /events (SSE), and /debug/pprof for a metrics registry and hub.
	StatsServer = stats.Server
	// EventHub fans spans, metrics snapshots, and progress lines out to
	// /events subscribers; it is a TraceSink and an io.Writer.
	EventHub = stats.Hub
)

// NewEventHub returns an empty event hub.
func NewEventHub() *EventHub { return stats.NewHub() }

// NewStatsServer builds a telemetry server over a registry and hub
// (either may be nil); bind it with Listen, stop it with Close.
func NewStatsServer(m *Metrics, hub *EventHub) *StatsServer { return stats.New(m, hub) }

// The warm-session verification daemon (see internal/serve and
// cmd/jinjingd).
type (
	// Daemon is a long-lived HTTP/JSON service hosting named warm
	// sessions, each owning one engine and cross-run verdict cache for
	// one network; bind with Listen, stop with Close.
	Daemon = daemon.Server
	// DaemonConfig tunes admission (in-flight bound, per-tenant quotas)
	// and the per-job option ceilings.
	DaemonConfig = daemon.Config
	// DaemonQuota is a per-tenant token-bucket admission budget.
	DaemonQuota = daemon.Quota
)

// NewDaemon builds a warm-session daemon from cfg.
func NewDaemon(cfg DaemonConfig) *Daemon { return daemon.New(cfg) }

// Synthetic networks (the evaluation substrate).
type (
	// WAN is a generated layered wide-area network.
	WAN = netgen.WAN
	// WANConfig parameterizes the generator.
	WANConfig = netgen.Config
	// WANSize selects one of the three evaluation scales.
	WANSize = netgen.Size
)

// WAN scales.
const (
	SmallWAN  = netgen.Small
	MediumWAN = netgen.Medium
	LargeWAN  = netgen.Large
)

// DefaultWANConfig returns the calibrated generator parameters.
func DefaultWANConfig(size WANSize, seed int64) WANConfig {
	return netgen.DefaultConfig(size, seed)
}

// BuildWAN generates a synthetic WAN.
func BuildWAN(cfg WANConfig) *WAN { return netgen.Build(cfg) }
