// Package inject implements the Environment Fault Injection Methodology of
// Section 3.3: enumerate the environment-interaction points of an
// execution trace, build the per-point fault list from the EAI catalogs,
// inject one fault per run (direct faults before the interaction point,
// indirect faults after it), observe the security oracle, and score the
// campaign with the two-dimensional adequacy metric.
package inject

import (
	"errors"
	"sync"
	"time"

	"repro/internal/core/coverage"
	"repro/internal/core/eai"
	"repro/internal/core/policy"
	"repro/internal/interpose"
	"repro/internal/sim/kernel"
	"repro/internal/sim/proc"
	"repro/internal/sim/vfs"
)

// Static errors.
var (
	ErrNoWorld    = errors.New("inject: campaign has no world factory")
	ErrEmptyTrace = errors.New("inject: clean run produced no interactions")
	ErrCleanCrash = errors.New("inject: application crashed on the clean run")
)

// Launch describes how to start the application under test in a freshly
// built world.
type Launch struct {
	Cred proc.Cred
	Env  proc.Env
	Cwd  string
	Args []string
	Prog kernel.Program
}

// Factory builds a fresh world and launch description. It is invoked once
// per injection run, so every run starts from an identical environment —
// the paper's requirement that faults be injected into a known state.
type Factory func() (*kernel.Kernel, Launch)

// Campaign is one application-under-test configuration.
type Campaign struct {
	// Name labels reports.
	Name string
	// World builds the environment and launch parameters.
	World Factory
	// Policy is the security oracle configuration.
	Policy policy.Policy
	// Faults parameterises the direct-fault appliers.
	Faults eai.Config
	// Sites restricts perturbation to these call sites (the tester's
	// step-4 choice of objects). Empty means every eligible site. An
	// entry ending in "*" is a prefix pattern: "lpr:*" selects every
	// site of the lpr program — the form composed multi-app campaigns
	// use to carry an unrestricted member's whole surface.
	Sites []string
	// Semantics annotates input sites with their Table 5 semantic kind.
	// Unannotated sites fall back to eai.InferSemantic.
	Semantics map[string]eai.Semantic
	// Source names the campaign's source identity: the world-builder
	// configuration and the program under test, e.g. "lpr@1/vulnerable".
	// It feeds SourceFingerprint, which lets a result cache replay the
	// campaign without re-executing even the clean run. The declarer
	// owns its truthfulness — bump the version component whenever the
	// world builder or program changes. Empty disables source-level
	// caching; the trace-pinned plan fingerprint still applies.
	Source string
	// NoSnapshot opts the campaign out of copy-on-write world snapshots:
	// every run rebuilds through World even when snapshots are globally
	// enabled. For factories with per-call side effects the engine cannot
	// see (e.g. a world drawn from an external data source). Not
	// fingerprint material — snapshotting never changes a result byte.
	NoSnapshot bool
}

// Options are engine variations used by the ablation benchmarks. The zero
// value is the paper's methodology.
type Options struct {
	// NoObjectDedup disables the suppression of direct faults already
	// injected for the same (object, attribute) at an earlier point.
	NoObjectDedup bool
	// OnlyDirect skips indirect faults.
	OnlyDirect bool
	// OnlyIndirect skips direct faults.
	OnlyIndirect bool
	// DirectAfterPoint injects direct faults *after* the interaction point
	// instead of before — deliberately wrong timing, for the ablation
	// showing why Section 3.3 step 6 orders them as it does.
	DirectAfterPoint bool
}

// Injection is the outcome of one fault-injection run.
type Injection struct {
	// Point is the interaction point (site#occur) armed.
	Point string
	// Site is the static call-site portion of Point.
	Site string
	// Kind is the environment-object kind the armed interaction touches.
	Kind interpose.ObjectKind
	// FaultID identifies the catalog fault injected.
	FaultID string
	// Class is direct or indirect.
	Class eai.Class
	// Attr is set for direct faults.
	Attr eai.Attr
	// Sem is set for indirect faults.
	Sem eai.Semantic
	// Applied reports whether the fault actually landed (the armed point
	// was reached and the applier succeeded).
	Applied bool
	// ApplyErr holds the applier error, if any.
	ApplyErr string
	// Exit is the process exit code.
	Exit int
	// CrashMsg is non-empty when the run ended in a simulated memory
	// error.
	CrashMsg string
	// Violations are the oracle findings.
	Violations []policy.Violation
}

// Tolerated reports whether the application tolerated this fault.
func (in Injection) Tolerated() bool { return len(in.Violations) == 0 }

// Result is a completed campaign.
type Result struct {
	Campaign string
	// CleanTrace is the unperturbed execution trace.
	CleanTrace []interpose.Event
	// TotalSites is every distinct call site on the clean trace, in first-
	// hit order.
	TotalSites []string
	// PerturbedSites is the subset that received at least one injection.
	PerturbedSites []string
	// Injections holds one entry per fault-injection run.
	Injections []Injection
}

// Metric computes the Figure 2 adequacy metric for the campaign.
func (r *Result) Metric() coverage.Metric {
	tolerated := 0
	for _, in := range r.Injections {
		if in.Tolerated() {
			tolerated++
		}
	}
	return coverage.Metric{
		FaultsInjected:  len(r.Injections),
		FaultsTolerated: tolerated,
		PointsPerturbed: len(r.PerturbedSites),
		PointsTotal:     len(r.TotalSites),
	}
}

// Violations returns every non-tolerated injection.
func (r *Result) Violations() []Injection {
	var out []Injection
	for _, in := range r.Injections {
		if !in.Tolerated() {
			out = append(out, in)
		}
	}
	return out
}

// ViolationsBySite groups violating injections by call site.
func (r *Result) ViolationsBySite() map[string][]Injection {
	out := make(map[string][]Injection)
	for _, in := range r.Violations() {
		out[in.Site] = append(out[in.Site], in)
	}
	return out
}

// planned is one (point, fault) pair scheduled for injection.
type planned struct {
	site  string
	occur int
	// point is the interaction-point identity site#occur, built once
	// per site and shared by the site's plans.
	point string
	kind  interpose.ObjectKind
	// armedIdx is the clean-trace index of the armed interaction point.
	// A run replays the clean trace byte-for-byte up to (excluding) this
	// event, which is what lets the seeded oracle skip the prefix.
	armedIdx int
	dir      *eai.DirectFault
	ind      *eai.IndirectFault
}

// Run executes the campaign with the paper's methodology.
func Run(c Campaign) (*Result, error) { return RunWith(c, Options{}) }

// RunWith executes the campaign with explicit engine options: steps 2-5
// (clean run, point enumeration, fault lists) via PrepareWith, then one
// injection run per planned fault (steps 6-8), strictly sequentially.
// Callers that want the runs fanned out across workers use the same
// ExecPlan surface through the sched package.
func RunWith(c Campaign, opt Options) (*Result, error) {
	plan, err := PrepareWith(c, opt)
	if err != nil {
		return nil, err
	}
	res := plan.Shell()
	res.Injections = make([]Injection, 0, plan.NumRuns())
	for i := 0; i < plan.NumRuns(); i++ {
		res.Injections = append(res.Injections, plan.RunOne(i))
	}
	return &res, nil
}

// callCwd returns the working directory the call was made from, falling
// back to the launch cwd for older traces.
func callCwd(call *interpose.Call, l Launch) string {
	if call.Cwd != "" {
		return call.Cwd
	}
	if l.Cwd != "" {
		return l.Cwd
	}
	return "/"
}

// objectIdentity keys the direct-fault dedup: the resolved object when
// known, otherwise the canonicalised argument path.
func objectIdentity(call *interpose.Call) string {
	return vfs.Canon(callCwd(call, Launch{}), call.Path)
}

// recorders recycles per-run bus recorders (trace buffer, occurrence
// table, payload arena) across injection runs. A run's trace is only
// read during its own oracle pass, and an Injection keeps only strings
// derived from it, so nothing a recorder handed out outlives runOne and
// steady-state recording allocates nothing.
var recorders = sync.Pool{New: func() any { return new(interpose.Recorder) }}

// traceSlack is the extra trace room reserved beyond the clean trace's
// length: a perturbed run may take a longer path than the clean run
// (an error branch, a retry), and the slack lets it record that path
// without growing the buffer.
func traceSlack(clean int) int { return clean/4 + 8 }

// run is the state one injection run shares between the fault hook it
// arms and the oracle pass that follows. The hooks are methods on it, so
// one allocation holds what separate closures would each capture.
type run struct {
	ep    *ExecPlan
	pl    *planned
	k     *kernel.Kernel
	p     *kernel.Proc
	inj   Injection
	snap  *vfs.FS
	armed bool
}

// arm reports whether call is the run's injection point reached for the
// first time, and marks the run armed if so.
func (r *run) arm(call *interpose.Call) bool {
	if r.armed || call.Site != r.pl.site || call.Occur != r.pl.occur {
		return false
	}
	r.armed = true
	return true
}

// applyDirect is the direct-fault hook: it rewrites the world at the
// armed point.
func (r *run) applyDirect(call *interpose.Call) {
	if !r.arm(call) {
		return
	}
	ctx := &eai.Ctx{
		Kern:   r.k,
		Call:   call,
		Cwd:    r.p.Cwd,
		SetCwd: r.setCwd,
		Cfg:    r.ep.campaign.Faults,
	}
	if err := r.pl.dir.Apply(ctx); err != nil {
		r.inj.ApplyErr = err.Error()
		return
	}
	r.inj.Applied = true
	r.k.Bus.MarkMutated()
	// Zero-clone post-injection snapshot: freeze the world the fault
	// just arranged and let the rest of the run proceed on a fresh fork.
	r.snap = r.k.FreezeFS()
}

// applyDirectAfter is applyDirect in the post-hook position, for the
// DirectAfterPoint ablation.
func (r *run) applyDirectAfter(call *interpose.Call, _ *interpose.Result) { r.applyDirect(call) }

func (r *run) setCwd(dir string) { r.p.Cwd = dir }

// mutateIndirect is the indirect-fault hook: it perturbs the value the
// application receives at the armed point.
func (r *run) mutateIndirect(call *interpose.Call, res *interpose.Result) {
	if !r.arm(call) {
		return
	}
	r.inj.Applied = true
	r.k.Bus.MarkMutated()
	switch {
	case res.Data != nil:
		res.Data = r.pl.ind.Mutate(res.Data)
	case res.Str != "":
		res.Str = string(r.pl.ind.Mutate([]byte(res.Str)))
	}
}

// runOne performs a single fault-injection run (steps 6-8). phase, when
// non-nil, observes the world/exec/compare segments; it deliberately
// lives outside Options so telemetry never perturbs cache fingerprints.
func (ep *ExecPlan) runOne(i int, phase PhaseFunc) Injection {
	pl, ws := &ep.plans[i], ep.world

	worldStart := time.Now()
	k, l := ws.world()

	// Record into a pooled recorder sized from the clean trace.
	rec := recorders.Get().(*interpose.Recorder)
	clean := len(ep.shell.CleanTrace)
	rec.Grow(clean + traceSlack(clean))
	k.Bus.UseRecorder(rec)

	r := &run{
		ep: ep,
		pl: pl,
		k:  k,
		p:  k.NewProc(l.Cred, l.Env, l.Cwd, l.Args...),
		inj: Injection{
			Point: pl.point,
			Site:  pl.site,
			Kind:  pl.kind,
		},
	}

	// Snap defaults to the pre-run world; a direct fault replaces it with
	// the post-injection world so the oracle judges against what the
	// attacker actually arranged. In snapshot mode the frozen base image
	// *is* the pre-run world; otherwise the freshly built world is frozen
	// in place and the run continues on a copy-on-write fork — either
	// way, no deep clone.
	r.snap = ws.baseFS()
	if r.snap == nil {
		r.snap = k.FreezeFS()
	}

	switch {
	case pl.dir != nil:
		r.inj.FaultID = pl.dir.ID
		r.inj.Class = eai.ClassDirect
		r.inj.Attr = pl.dir.Attr
		if ep.opt.DirectAfterPoint {
			k.Bus.OnPost(r.applyDirectAfter)
		} else {
			k.Bus.OnPre(r.applyDirect)
		}
	case pl.ind != nil:
		r.inj.FaultID = pl.ind.ID
		r.inj.Class = eai.ClassIndirect
		r.inj.Sem = pl.ind.Sem
		k.Bus.OnPost(r.mutateIndirect)
	}

	execStart := time.Now()
	if phase != nil {
		phase("world", worldStart, execStart.Sub(worldStart))
	}
	exit, crash := k.Run(r.p, l.Prog)
	compareStart := time.Now()
	if phase != nil {
		phase("exec", execStart, compareStart.Sub(execStart))
	}
	inj := r.inj
	inj.Exit = exit
	obs := policy.Observation{
		Trace:  k.Bus.Trace(),
		Stdout: r.p.Stdout.Bytes(),
		Snap:   r.snap,
	}
	if crash != nil {
		inj.CrashMsg = crash.Msg
		obs.CrashMsg = crash.Msg
	}
	// The seeded oracle is sound exactly when the run's pre-injection
	// world is the frozen base the seed was computed against — true for
	// every indirect and unapplied-direct run. An applied direct fault
	// replaced snap with the post-injection world above, which sends it
	// down the full-walk branch.
	if ep.seed != nil && r.snap == ws.baseFS() {
		inj.Violations = ep.seed.EvaluateFrom(pl.armedIdx, obs)
	} else {
		inj.Violations = ep.campaign.Policy.Evaluate(obs)
	}
	if phase != nil {
		phase("compare", compareStart, time.Since(compareStart))
	}
	// Recycle the recorder. Violations carry only derived strings and
	// the kernel dies with this call, so nothing can observe the reuse.
	rec.Reset()
	recorders.Put(rec)
	return inj
}
