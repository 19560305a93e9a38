// Command eptbench is eptest's benchmark. It pushes one workload's
// catalog through eptest for a fixed time, checks every pass's output
// bytes, and prints each end-to-end metric by name and unit; with
// -trace 1 it instead records spans around each layer call and prints
// the per-layer metrics and a self-time table. The last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Build and run it through run.sh from the checkout root:
//
//	bash eptbench/run.sh --workload matrix-cold --seed 1 --seconds 30 --trace 0
//
// README.md lists the workloads, the metrics and how to read a trace.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart is when the benchmark process began: set-up is timed
// from here to the first measured pass.
var processStart = time.Now()

// setupSamples is how many set-ups setup_s is the median of. The
// in-process workloads take the extra samples in fresh processes, so
// every sample pays the same one-time costs.
const setupSamples = 3

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"matrix-cold", "matrix-warm", "fleet-base", "cli-lpr"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the parsed command line.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	smoke     bool
	setupOnly bool
	root      string
	eptest    string
	traceOut  string
}

func parse(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("eptbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed for the job order handed to the dispatcher and coordinator")
	fs.Float64Var(&o.seconds, "seconds", 30, "how long the measured passes run")
	fs.IntVar(&traceFlag, "trace", 0, "1: the traced run, reporting per-layer metrics instead of end-to-end ones")
	fs.BoolVar(&o.smoke, "smoke", false, "one pass after a single set-up, for a quick check of the workload")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "run the set-up alone and print its duration (used for the set-up samples)")
	fs.StringVar(&o.root, "root", ".", "checkout root holding the eptest sources and goldens")
	fs.StringVar(&o.eptest, "eptest", "", "eptest binary, for cli-lpr")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of the traced run (default .bench_build/traces/WORKLOAD-seedN.json)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	known := false
	for _, n := range workloadNames {
		known = known || n == o.workload
	}
	if !known {
		return o, fmt.Errorf("-workload %q: want one of %s", o.workload, strings.Join(workloadNames, ", "))
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("-trace %d: want 0 or 1", traceFlag)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds %v: want > 0", o.seconds)
	}
	o.trace = traceFlag == 1
	if o.traceOut == "" {
		o.traceOut = filepath.Join(o.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	}
	return o, nil
}

func newWorkload(name string, e *env) workload {
	switch name {
	case "matrix-cold":
		return &matrixWorkload{e: e, hooks: newTraceHooks()}
	case "matrix-warm":
		return &matrixWorkload{e: e, warm: true, hooks: newTraceHooks()}
	case "fleet-base":
		return &fleetWorkload{e: e, hooks: newTraceHooks()}
	}
	return &cliWorkload{e: e}
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parse(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "eptbench: %v\n", err)
		return 2
	}
	scratch := filepath.Join(o.root, ".bench_build", "work")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "eptbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "eptbench: %v\n", err)
		return 1
	}
	// The removal is flushed before exit, so the next run does not pay
	// for this one's write-back.
	defer syscall.Sync()
	defer os.RemoveAll(work)
	if o.eptest != "" {
		if o.eptest, err = filepath.Abs(o.eptest); err != nil {
			fmt.Fprintf(stderr, "eptbench: %v\n", err)
			return 1
		}
	}
	e := &env{root: o.root, eptest: o.eptest, seed: o.seed, work: work}
	w := newWorkload(o.workload, e)

	if err := w.setup(); err != nil {
		fmt.Fprintf(stderr, "eptbench: %s set-up: %v\n", o.workload, err)
		return 1
	}
	setup := time.Since(processStart).Seconds()
	if o.setupOnly {
		fmt.Fprintf(stdout, "{\"setup_s\": %v}\n", setup)
		return 0
	}

	fmt.Fprintf(stdout, "workload %s, seed %d%s, %d dispatcher workers, GOMAXPROCS %d, %s\n",
		o.workload, o.seed, seedNote(o.workload), workers, runtime.GOMAXPROCS(0), runtime.Version())
	var res result
	if o.trace {
		res, err = traced(o, w, stdout)
	} else {
		res, err = untraced(o, w, setup, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "eptbench: %s: %v\n", o.workload, err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "eptbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

// seedNote says what the seed does on this workload.
func seedNote(workload string) string {
	if workload == "cli-lpr" {
		return " (no effect on cli-lpr: the CLI fixes its own job order)"
	}
	return " (permutes the job order)"
}

// tally accumulates measured passes.
type tally struct {
	walls     []float64 // ms per pass
	runs      int
	campaigns int
	failures  int
	problems  []string
	childCPU  time.Duration
	childRSS  []float64
	steals    []float64
}

func (t *tally) add(wall time.Duration, p passResult) {
	t.walls = append(t.walls, ms(wall))
	t.runs += p.runs
	t.campaigns += p.campaigns
	t.failures += p.failures
	t.problems = append(t.problems, p.problems...)
	t.childCPU += p.childCPU
	if p.childRSS > 0 {
		t.childRSS = append(t.childRSS, p.childRSS)
	}
	t.steals = append(t.steals, float64(p.steals))
}

// measure runs passes until the budget is spent (at least one pass),
// timing each. root opens a traced pass's span; nil runs untraced.
func measure(w workload, budget time.Duration, root func() *active) *tally {
	t := &tally{}
	start := time.Now()
	for len(t.walls) == 0 || time.Since(start) < budget {
		var sp *active
		if root != nil {
			sp = root()
		}
		passStart := time.Now()
		p := w.pass(sp)
		wall := time.Since(passStart)
		sp.end()
		t.add(wall, p)
		w.afterPass()
	}
	return t
}

// budget is the measured time of a run, or one pass in smoke mode.
func (o options) budget() time.Duration {
	if o.smoke {
		return 0
	}
	return time.Duration(o.seconds * float64(time.Second))
}

func untraced(o options, w workload, firstSetup float64, stdout io.Writer) (result, error) {
	setups := []float64{firstSetup}
	if !o.smoke {
		more, err := setupSamplesFor(o, w)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, more...)
	}

	runtime.GC() // every run starts measuring from a collected heap
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	cpu0 := cpuTime()
	t := measure(w, o.budget(), nil)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&mem1)
	allocs := float64(mem1.Mallocs - mem0.Mallocs)
	rss := peakRSSMB()

	if c, ok := w.(*cliWorkload); ok {
		// The child's own figures replace the benchmark process's.
		cpu = t.childCPU
		rss = median(t.childRSS)
		apr, p := c.inprocAllocsPerRun(3)
		t.campaigns += p.campaigns
		t.failures += p.failures
		t.problems = append(t.problems, p.problems...)
		allocs = apr * float64(t.runs)
	}

	runs := float64(max(t.runs, 1))
	wallS := 0.0
	for _, x := range t.walls {
		wallS += x / 1000
	}
	v := map[string]float64{
		"setup_s":        median(setups),
		"runs_per_s":     float64(t.runs) / wallS,
		"pass_p50_ms":    median(t.walls),
		"pass_p90_ms":    quantile(t.walls, 0.9),
		"cpu_us_per_run": us(cpu) / runs,
		"allocs_per_run": allocs / runs,
		"peak_rss_mb":    rss,
	}
	n := len(t.walls)
	fmt.Fprintf(stdout, "set-up: median of %d sample(s) %v s\n", len(setups), fmtList(setups))
	fmt.Fprintf(stdout, "passes: %d in %.3f s; %d runs and %d campaigns delivered\n", n, wallS, t.runs, t.campaigns)
	fmt.Fprintf(stdout, "pass wall ms: p10 %.3f p25 %.3f p50 %.3f p75 %.3f p90 %.3f max %.3f\n",
		quantile(t.walls, 0.1), quantile(t.walls, 0.25), quantile(t.walls, 0.5), quantile(t.walls, 0.75),
		quantile(t.walls, 0.9), quantile(t.walls, 1))
	fmt.Fprintf(stdout, "pass_p90_ms is the nearest-rank p90 of %d passes (%d beyond it)\n", n, n-int(math.Ceil(0.9*float64(n))))
	printMetrics(stdout, endToEnd, v)
	return finish(stdout, t, fill(endToEnd, v)), nil
}

// finish reports the failure ratio and builds the result line.
func finish(stdout io.Writer, t *tally, m map[string]metricValue) result {
	attempted := max(t.campaigns, 1)
	fmt.Fprintf(stdout, "fail_ratio: %d/%d = %.4f\n", t.failures, attempted, float64(t.failures)/float64(attempted))
	for i, p := range t.problems {
		if i == 10 {
			fmt.Fprintf(stdout, "  ... and %d more\n", len(t.problems)-i)
			break
		}
		fmt.Fprintf(stdout, "  FAIL %s\n", p)
	}
	return result{Correct: t.failures == 0, Attempted: attempted, Failed: t.failures, Metrics: m}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// setupSamplesFor takes the set-up samples beyond the run's own. A CLI
// set-up is one child run, so it simply repeats; an in-process set-up
// repeats in a fresh benchmark process, started with -setup-only.
func setupSamplesFor(o options, w workload) ([]float64, error) {
	var out []float64
	for i := 1; i < setupSamples; i++ {
		if _, ok := w.(*cliWorkload); ok {
			start := time.Now()
			if err := w.setup(); err != nil {
				return nil, fmt.Errorf("set-up sample: %w", err)
			}
			out = append(out, time.Since(start).Seconds())
			continue
		}
		s, err := setupInChild(o)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// setupInChild runs the set-up in a fresh process and returns its
// duration, as the child measured it from its own start.
func setupInChild(o options) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-setup-only", "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-root", o.root, "-eptest", o.eptest)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("set-up sample: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	var v struct {
		Setup float64 `json:"setup_s"`
	}
	if err := json.Unmarshal(lastLine(out.Bytes()), &v); err != nil {
		return 0, fmt.Errorf("set-up sample: %v", err)
	}
	return v.Setup, nil
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// traced is the traced run: untraced passes for half the budget, then
// traced passes for the other half, then the attribution replay.
func traced(o options, w workload, stdout io.Writer) (result, error) {
	half := o.budget() / 2
	runtime.GC()
	plain := measure(w, half, nil)
	tr := newTracer()
	t := measure(w, half, func() *active { return tr.root("pass") })
	t.failures += plain.failures
	t.problems = append(t.problems, plain.problems...)
	t.campaigns += plain.campaigns

	v := map[string]float64{}
	rs := w.replay()
	if err := replay(tr, rs); err != nil {
		t.failures++
		t.problems = append(t.problems, err.Error())
	}
	apr, err := allocsPerRun(rs)
	if err != nil {
		return result{}, err
	}
	v["inject.allocs_per_run"] = apr

	spans := tr.snapshot()
	passRoots := roots(spans, "pass")
	replayRoots := roots(spans, "replay")
	passes := passIDs(passRoots)
	rp := passIDs(replayRoots)

	fmt.Fprintf(stdout, "traced run: %d untraced pass(es), then %d traced pass(es), then one replay\n", len(plain.walls), len(t.walls))
	self := selfTimes(spans)
	layerMS := selfTable(stdout, "traced pass", self, passRoots)
	for _, l := range selfLayers {
		v["self."+l+"_ms"] = layerMS[l]
	}
	selfTable(stdout, "replay (attribution only, one goroutine)", self, replayRoots)

	v["trace.pass_ms"] = mean(t.walls)
	v["trace.untraced_p50_ms"] = median(plain.walls)
	if u := median(plain.walls); u > 0 {
		v["trace.overhead_pct"] = 100 * (median(t.walls) - u) / u
	}
	fmt.Fprintf(stdout, "tracing overhead: traced pass p50 %.3f ms vs untraced %.3f ms (%+.2f%%)\n",
		median(t.walls), median(plain.walls), v["trace.overhead_pct"])
	if len(replayRoots) > 0 {
		v["replay.wall_ms"] = ms(replayRoots[0].dur())
	}

	p50 := func(name string) float64 { return median(durationsUS(spans, passes, name)) }
	v["apps.build_us"] = p50("apps.build")
	v["apps.builds"] = countPerPass(spans, passes, "apps.build")
	v["inject.fingerprint_us"] = median(durationsUS(spans, rp, "inject.fingerprint"))
	v["inject.plan_us"] = median(durationsUS(spans, rp, "inject.plan"))
	v["inject.plans"] = countPerPass(spans, rp, "inject.plan")
	for _, ph := range []string{"world", "exec", "compare"} {
		v["inject."+ph+"_us"] = median(durationsUS(spans, rp, "inject."+ph))
	}
	v["inject.runs"] = countPerPass(spans, rp, "inject.run")
	v["store.codec_us"] = median(durationsUS(spans, rp, "store.codec"))
	v["sched.steals"] = median(t.steals)
	v["sched.self_ratio"] = schedSelfRatio(spans, self, passRoots)
	gets := durationsUS(spans, passes, "store.get")
	v["store.get_p50_us"] = median(gets)
	v["store.get_p90_us"] = quantile(gets, 0.9)
	v["store.gets"] = countPerPass(spans, passes, "store.get")
	v["store.put_us"] = p50("store.put")
	v["store.puts"] = countPerPass(spans, passes, "store.put")
	claims := durationsUS(spans, passes, "coord.claim")
	v["coord.claim_p50_us"] = median(claims)
	v["coord.claim_p90_us"] = quantile(claims, 0.9)
	v["coord.claims"] = countPerPass(spans, passes, "coord.claim")
	v["findings.build_ms"] = p50("findings.build") / 1000
	v["findings.encode_ms"] = p50("findings.encode") / 1000
	v["report.render_ms"] = p50("report.render") / 1000

	switch w := w.(type) {
	case *matrixWorkload:
		v["matrix.catalog_ms"] = w.catalogMS
		hookMetrics(v, w.hooks)
	case *fleetWorkload:
		hookMetrics(v, w.hooks)
		v["coord.drain_ms"] = median(w.drainMS)
		v["coord.journal_bytes"] = median(w.journalBytes)
		v["coord.requeues"] = median(w.requeues)
		v["coord.duplicates"] = median(w.duplicates)
	case *cliWorkload:
		var walls []float64
		for i := 0; i < max(3, len(t.walls)/4); i++ {
			d, p := w.inprocPass()
			t.campaigns += p.campaigns
			t.failures += p.failures
			t.problems = append(t.problems, p.problems...)
			walls = append(walls, ms(d))
		}
		v["matrix.catalog_ms"] = w.catalogMS
		v["cli.wall_ms"] = p50("cli.exec") / 1000
		v["cli.inproc_ms"] = median(walls)
		v["cli.overhead_ms"] = v["cli.wall_ms"] - v["cli.inproc_ms"]
		v["cli.cpu_ms"] = ms(t.childCPU) / float64(max(len(t.walls), 1))
		fmt.Fprintf(stdout, "cli: child wall p50 %.3f ms, in-process p50 %.3f ms over %d pass(es), overhead %.3f ms\n",
			v["cli.wall_ms"], v["cli.inproc_ms"], len(walls), v["cli.overhead_ms"])
	}

	meta := map[string]any{"workload": o.workload, "seed": o.seed, "workers": workers,
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version()}
	if err := writeChrome(o.traceOut, spans, meta); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(stdout, "wrote %d spans to %s\n", len(spans), o.traceOut)
	printMetrics(stdout, perLayer, v)
	return finish(stdout, t, fill(perLayer, v)), nil
}

// hookMetrics folds the traced passes' event and cache counters in.
func hookMetrics(v map[string]float64, h *traceHooks) {
	v["sched.inflight_p50_ms"] = median(h.inflight)
	v["sched.inflight_p90_ms"] = quantile(h.inflight, 0.9)
	if g := h.gets.Load(); g > 0 {
		v["store.hit_ratio"] = float64(h.hits.Load()) / float64(g)
	}
}

// schedSelfRatio is the share of the dispatch span's wall time that no
// child layer covers, per worker lane, averaged over the passes: 1 -
// sum of child busy time / (lanes x dispatch wall).
func schedSelfRatio(spans []span, self map[int64]map[string]time.Duration, passRoots []span) float64 {
	var ratios []float64
	for _, r := range passRoots {
		for i := range spans {
			s := &spans[i]
			if s.Pass == r.Pass && s.Parent == r.ID && strings.HasPrefix(s.Name, "sched.") && s.dur() > 0 {
				ratios = append(ratios, float64(self[r.Pass]["sched"])/float64(s.dur()))
			}
		}
	}
	return mean(ratios)
}

// passIDs is the set of pass ids of the given root spans.
func passIDs(rs []span) map[int64]bool {
	m := make(map[int64]bool, len(rs))
	for _, r := range rs {
		m[r.Pass] = true
	}
	return m
}

// printMetrics prints each metric by name and unit.
func printMetrics(w io.Writer, defs []metricDef, v map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-24s %14.4f %s\n", d.Name, v[d.Name], d.Unit)
	}
}
