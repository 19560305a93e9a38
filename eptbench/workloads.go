package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/apps/matrix"
	"repro/internal/core/findings"
	"repro/internal/core/inject"
	"repro/internal/core/report"
	"repro/internal/core/sched"
	"repro/internal/core/store"
)

// workers is the dispatcher width of the in-process workloads and the
// CLI's -j: one process, two workers, as on a two-CPU host.
const workers = 2

// Pinned catalog figures. A pass that delivers different counts, or
// findings with a different digest, fails.
const (
	matrixCampaigns  = 600
	matrixRuns       = 11212
	matrixViolations = 5210
	matrixFindings   = "99ca24fc3255501478757fd746e84735ec9f3d4637c5d5efc7bd13f7cbcee2eb" // sha256 of the canonical findings export
	baseCampaigns    = 20
	baseRuns         = 273
	lprCampaigns     = 48
	lprRuns          = 646
	lprFilter        = "lpr/*"
)

// env is what every workload shares: where the checkout is, the seed,
// and a scratch directory removed when the run ends.
type env struct {
	root, eptest string
	seed         uint64
	work         string
}

// golden reads one of the CLI's committed golden files.
func (e *env) golden(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(e.root, "cmd", "eptest", "testdata", "golden", name))
}

// permute returns the jobs in the seed's order. The findings export is
// canonical, so every order must produce the same findings bytes.
func (e *env) permute(jobs []sched.Job) []sched.Job {
	out := append([]sched.Job(nil), jobs...)
	r := rand.New(rand.NewPCG(e.seed, 0x9e3779b97f4a7c15))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// passResult is what one pass delivered.
type passResult struct {
	campaigns int // campaigns attempted
	runs      int // injection-run results delivered, executed or replayed
	failures  int // failed campaigns, mismatched outputs, non-zero exits
	problems  []string
	steals    int
	// Set by the CLI workload: the child's CPU time and peak RSS.
	childCPU time.Duration
	childRSS float64
}

func (p *passResult) fail(format string, args ...any) {
	p.failures++
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// workload is one way of pushing a catalog through eptest.
type workload interface {
	// setup builds everything a pass needs and checks a first pass.
	setup() error
	// pass pushes the catalog through once. root is the pass's span in
	// a traced pass and nil otherwise; an untraced pass attaches no
	// event handler and no wrapper.
	pass(root *active) passResult
	// afterPass removes what the pass left behind; it is not timed.
	afterPass()
	// replay names the jobs and cache the attribution replay mirrors.
	replay() replaySpec
}

// checkSuite counts a suite result against the pinned figures.
func checkSuite(p *passResult, sr *sched.SuiteResult, wantCampaigns, wantRuns int) {
	p.campaigns += len(sr.Campaigns)
	for _, c := range sr.Campaigns {
		if c.Err != nil {
			p.fail("campaign %s failed: %v", c.Job.Label(), c.Err)
			continue
		}
		p.runs += len(c.Result.Injections)
	}
	if len(sr.Campaigns) != wantCampaigns {
		p.fail("suite delivered %d campaigns, want %d", len(sr.Campaigns), wantCampaigns)
	}
	if p.runs != wantRuns {
		p.fail("suite delivered %d runs, want %d", p.runs, wantRuns)
	}
}

// rendered is a pass's user-visible output.
type rendered struct {
	findings   []byte
	report     string
	violations int
}

// render builds the findings export and the suite report, as the CLI
// prints them, each under its own span.
func render(root *active, sr *sched.SuiteResult, withMatrix bool) (rendered, error) {
	sp := root.child("findings.build")
	rep := findings.FromSuite(sr)
	sp.end()
	sp = root.child("findings.encode")
	b, err := rep.Encode()
	sp.end()
	if err != nil {
		return rendered{}, fmt.Errorf("encode findings: %w", err)
	}
	sp = root.child("report.render")
	var sb strings.Builder
	sb.WriteString(report.SuiteRun(sr))
	sb.WriteString("\n")
	sb.WriteString(report.Clusters(sched.ClusterSuite(sr)))
	if withMatrix {
		sb.WriteString("\n")
		sb.WriteString(report.Matrix(sr))
	}
	sp.end()
	v := 0
	for _, c := range sr.Campaigns {
		if c.Err == nil {
			v += c.Result.Metric().Violations()
		}
	}
	return rendered{findings: b, report: sb.String(), violations: v}, nil
}

// checkOutput compares a pass's output with the run's reference: the
// findings bytes always, and the report once the first pass of the
// seed's order has fixed it (the report lists campaigns in job order).
func checkOutput(p *passResult, out rendered, refFindings []byte, refReport *string) {
	if !bytes.Equal(out.findings, refFindings) {
		p.fail("findings export differs from the reference (%d vs %d bytes)", len(out.findings), len(refFindings))
	}
	if *refReport == "" {
		*refReport = out.report
	} else if out.report != *refReport {
		p.fail("suite report differs from the run's first pass")
	}
}

// traceHooks collect what a traced pass's event handler and store
// wrapper observe.
type traceHooks struct {
	mu       sync.Mutex
	planned  map[string]time.Time
	inflight []float64 // ms from EventPlanned to EventDone, per campaign

	gets, hits atomic.Int64
}

func newTraceHooks() *traceHooks { return &traceHooks{planned: make(map[string]time.Time)} }

// onEvent records each campaign's time from planned to done.
func (h *traceHooks) onEvent(ev sched.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch ev.Kind {
	case sched.EventPlanned:
		h.planned[ev.Job.Label()] = time.Now()
	case sched.EventDone:
		if t, ok := h.planned[ev.Job.Label()]; ok {
			h.inflight = append(h.inflight, ms(time.Since(t)))
			delete(h.planned, ev.Job.Label())
		}
	}
}

// wrapJobs times each job's Build under a span opened by open.
func wrapJobs(jobs []sched.Job, open func(string) *active) []sched.Job {
	out := make([]sched.Job, len(jobs))
	for i, j := range jobs {
		build := j.Build
		j.Build = func() inject.Campaign {
			sp := open("apps.build")
			defer sp.end()
			return build()
		}
		out[i] = j
	}
	return out
}

// timedCache times every Get and Put of a result cache.
type timedCache struct {
	inner sched.Cache
	open  func(string) *active
	h     *traceHooks
}

func (c *timedCache) Get(fp string) (*inject.Result, bool) {
	sp := c.open("store.get")
	r, ok := c.inner.Get(fp)
	sp.end()
	c.h.gets.Add(1)
	if ok {
		c.h.hits.Add(1)
	}
	return r, ok
}

func (c *timedCache) Put(fp, label string, res *inject.Result) error {
	sp := c.open("store.put")
	defer sp.end()
	return c.inner.Put(fp, label, res)
}

// matrixWorkload is matrix-cold (no cache) or matrix-warm (a store
// seeded once during set-up, so every campaign replays at the source
// level and no run executes).
type matrixWorkload struct {
	e    *env
	warm bool

	catalogMS   float64
	jobs        []sched.Job // the seed's order
	st          *store.Store
	refFindings []byte
	refReport   string
	hooks       *traceHooks
}

func (m *matrixWorkload) setup() error {
	start := time.Now()
	catalog := matrix.SuiteJobs()
	m.catalogMS = ms(time.Since(start))
	if len(catalog) != matrixCampaigns {
		return fmt.Errorf("matrix catalog has %d campaigns, want %d", len(catalog), matrixCampaigns)
	}
	m.jobs = m.e.permute(catalog)
	opt := sched.SuiteOptions{Workers: workers}
	if m.warm {
		dir, err := os.MkdirTemp(m.e.work, "store-")
		if err != nil {
			return err
		}
		if m.st, err = store.Open(dir); err != nil {
			return err
		}
		opt.Cache = m.st
	}
	// The reference pass runs the catalog in its own order, so the
	// seed's passes are checked against an order-independent export. On
	// matrix-warm it is the cold pass that seeds the store.
	var p passResult
	sr := sched.RunSuite(catalog, opt)
	checkSuite(&p, sr, matrixCampaigns, matrixRuns)
	out, err := render(nil, sr, true)
	if err != nil {
		return err
	}
	if out.violations != matrixViolations {
		p.fail("matrix has %d violations, want %d", out.violations, matrixViolations)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(out.findings)); sum != matrixFindings {
		p.fail("matrix findings digest %s, want %s", sum, matrixFindings)
	}
	if p.failures > 0 {
		return fmt.Errorf("reference pass: %s", strings.Join(p.problems, "; "))
	}
	m.refFindings = out.findings
	if m.warm {
		// Flush the seeded store now, so its write-back does not land
		// in the measured passes.
		syscall.Sync()
	}
	// One warm-up pass in the seed's order, checked like a measured one.
	if wp := m.pass(nil); wp.failures > 0 {
		return fmt.Errorf("warm-up pass: %s", strings.Join(wp.problems, "; "))
	}
	return nil
}

func (m *matrixWorkload) pass(root *active) passResult {
	opt := sched.SuiteOptions{Workers: workers}
	jobs := m.jobs
	var rs *active
	if root != nil {
		rs = root.fanout("sched.RunSuite", workers)
		jobs = wrapJobs(jobs, rs.onLane)
		opt.OnEvent = m.hooks.onEvent
	}
	if m.warm {
		opt.Cache = m.st
		if root != nil {
			opt.Cache = &timedCache{inner: m.st, open: rs.onLane, h: m.hooks}
		}
	}
	sr := sched.RunSuite(jobs, opt)
	rs.end()

	var p passResult
	p.steals = sr.Dispatch.Steals
	checkSuite(&p, sr, matrixCampaigns, matrixRuns)
	if m.warm && sr.CacheHits() != matrixCampaigns {
		p.fail("warm pass replayed %d/%d campaigns from the store", sr.CacheHits(), matrixCampaigns)
	}
	out, err := render(root, sr, true)
	if err != nil {
		p.fail("%v", err)
		return p
	}
	checkOutput(&p, out, m.refFindings, &m.refReport)
	return p
}

func (m *matrixWorkload) afterPass() {}

func (m *matrixWorkload) replay() replaySpec {
	rs := replaySpec{jobs: m.jobs, ref: m.refFindings, withMatrix: true}
	if m.warm {
		rs.cache = m.st
		rs.fingerprints = true
	}
	return rs
}
