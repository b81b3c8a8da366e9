// Package faultinject is a test-only fault-injection registry for
// exercising the pipeline's recovery paths: solver timeouts, worker
// panics, and transient errors at named sites.
//
// It follows the same nil-safe, zero-cost-when-disabled pattern as
// internal/obs: production code calls Fire(site) unconditionally, and
// when nothing is scheduled that call is a single atomic load and an
// immediate return. Schedules are deterministic — a fault fires at
// explicit 1-based hit numbers of a site, or at pseudo-random hits
// drawn from a caller-provided seed — so a failing fault test replays
// exactly.
//
// The registry is process-global because the sites it arms live deep
// inside worker goroutines where threading a handle through would
// distort the code under test. Tests that arm schedules must not run
// in parallel with each other; each should defer Reset().
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Site names an injection point in the code under test.
type Site string

// Injection sites wired into the pipeline. The per-site meaning of each
// fault kind is documented where the site is fired.
const (
	// CheckSolve guards each FEC's Equation-3 decision in the check's
	// set algebra (fix's check loop included). Timeout interrupts it: the
	// FEC is Unknown ("interrupted") and never cached. Transient does the
	// same with reason "transient fault" — the check has no retry. Panic
	// crashes the check, which runs on the calling goroutine.
	CheckSolve Site = "check.solve"
	// ParallelJob guards each job of the core worker pool (runParallel),
	// which fix and generate share. Panic crashes the job; the
	// sequential re-run of crashed jobs does not fire it, so an every-hit
	// panic schedule collapses the pool without looping forever.
	ParallelJob Site = "core.parallel.job"
	// GenerateAEC guards each per-AEC synthesis solve of generate, the
	// one query with a retry loop (Options.MaxRetries). Timeout
	// interrupts the solver and Transient fails the attempt; both are
	// retried until the allowance runs out, and the AEC is then Unknown.
	// Panic crashes the job.
	GenerateAEC Site = "generate.aec"
	// ServeJob guards each admitted job of the jinjingd daemon
	// (internal/serve), fired inside the session's critical section just
	// before the engine runs. Panic simulates a job handler crash (the
	// daemon must answer 500 and keep the session usable); Transient
	// makes the job fail with a retryable 503; Timeout runs the job
	// under an already-expired context, so the check reports undecided
	// FECs that must never be cached.
	ServeJob Site = "serve.job"
	// StoreSnapshotWrite guards the durable verdict-snapshot write
	// (internal/store.Write). Panic crashes after a torn partial temp
	// file is on disk — the crash-mid-snapshot scenario, which must
	// leave any previously committed snapshot intact; Transient and
	// Timeout make the write fail cleanly before touching the
	// destination.
	StoreSnapshotWrite Site = "store.snapshot.write"
	// StoreRestore guards the snapshot read/decode path
	// (internal/store.Read). Panic crashes mid-restore — the caller
	// (jinjingd rehydration) must recover and fall back to a cold
	// start; Transient makes the read fail with a retryable error.
	StoreRestore Site = "store.restore"
)

// Kind is the fault injected at a site.
type Kind int

const (
	// None means no fault: the site proceeds normally.
	None Kind = iota
	// Panic makes the site panic, simulating a crashed worker.
	Panic
	// Timeout makes the site behave as if its solver ran out of time:
	// the solver is interrupted and the call returns Unknown.
	Timeout
	// Transient makes the site fail with a retryable error.
	Transient
)

// String renders the kind for schedules and error messages.
func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Timeout:
		return "timeout"
	case Transient:
		return "transient"
	}
	return "none"
}

// armed is the fast-path gate: false means Fire is one atomic load.
var armed atomic.Bool

var (
	mu    sync.Mutex
	plans map[Site][]*plan
	hits  map[Site]int64
)

type plan struct {
	kind Kind
	at   map[int64]bool // 1-based hit numbers at which to fire
	all  bool           // fire at every hit
}

// Enabled reports whether any schedule is armed. Exposed so call sites
// can gate non-trivial setup (building an error message, say) that
// Fire's return value alone wouldn't cover.
func Enabled() bool { return armed.Load() }

// Fire advances site's hit counter and reports the fault scheduled for
// this hit, or None. Call it unconditionally at the injection point;
// with nothing armed it costs one atomic load.
func Fire(site Site) Kind {
	if !armed.Load() {
		return None
	}
	mu.Lock()
	defer mu.Unlock()
	if plans == nil {
		return None
	}
	hits[site]++
	n := hits[site]
	for _, p := range plans[site] {
		if p.all || p.at[n] {
			return p.kind
		}
	}
	return None
}

// Schedule arms kind at the given 1-based hit numbers of site; with no
// hit numbers it fires at every hit. It returns a cancel func removing
// just this schedule (Reset removes everything).
func Schedule(site Site, kind Kind, hitNums ...int64) (cancel func()) {
	p := &plan{kind: kind, all: len(hitNums) == 0, at: map[int64]bool{}}
	for _, n := range hitNums {
		if n < 1 {
			panic(fmt.Sprintf("faultinject: hit numbers are 1-based, got %d", n))
		}
		p.at[n] = true
	}
	mu.Lock()
	defer mu.Unlock()
	if plans == nil {
		plans = map[Site][]*plan{}
		hits = map[Site]int64{}
	}
	plans[site] = append(plans[site], p)
	armed.Store(true)
	return func() {
		mu.Lock()
		defer mu.Unlock()
		ps := plans[site]
		for i, q := range ps {
			if q == p {
				plans[site] = append(ps[:i:i], ps[i+1:]...)
				break
			}
		}
		if len(plans[site]) == 0 {
			delete(plans, site)
		}
		if len(plans) == 0 {
			armed.Store(false)
		}
	}
}

// ScheduleSeeded arms kind at n distinct pseudo-random hits within
// [1, span], drawn deterministically from seed: the same seed always
// yields the same schedule, so a failing run replays exactly.
func ScheduleSeeded(site Site, kind Kind, seed int64, n, span int64) (cancel func()) {
	if n > span {
		n = span
	}
	rng := rand.New(rand.NewSource(seed))
	chosen := map[int64]bool{}
	for int64(len(chosen)) < n {
		chosen[1+rng.Int63n(span)] = true
	}
	nums := make([]int64, 0, len(chosen))
	for h := range chosen {
		nums = append(nums, h)
	}
	return Schedule(site, kind, nums...)
}

// Hits returns how many times site has fired its check point, for test
// assertions about coverage of the injection site itself.
func Hits(site Site) int64 {
	mu.Lock()
	defer mu.Unlock()
	return hits[site]
}

// Reset removes every schedule and hit counter and disarms the fast
// path. Tests arming schedules should defer it.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	plans = nil
	hits = nil
	armed.Store(false)
}
