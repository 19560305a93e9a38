// Command eptest runs an environment-perturbation fault-injection campaign
// against a named target application and prints the campaign report: the
// injection list, the violations, and the two-dimensional adequacy metric.
// With -all it schedules every catalog campaign (vulnerable and fixed
// variants) as one suite through the run-granularity work-stealing
// dispatcher and prints the summary table plus the clustered violation
// findings; on a terminal, one live status line tracks the run.
//
// Suite runs scale beyond one process through the result store (see
// docs/STORE.md): -cache makes re-runs incremental by replaying campaigns
// whose fingerprint is unchanged (source-level hits skip even the clean
// run), -shard k/n runs one deterministic partition of the suite and
// writes a mergeable shard artifact into the store, and -merge recombines
// the artifacts into the exact report an unsharded run would print.
//
// Suite runs scale beyond one machine through the cache transport (see
// docs/DISTRIBUTED.md): -serve-cache exposes a store directory over HTTP,
// and -cache-url points shard workers on other machines at it, so they
// share one cache and publish their artifacts to one merge point.
//
// Suite runs scale to an elastic fleet through the campaign coordinator
// (see docs/COORDINATOR.md): -serve-coord serves the catalog as a
// claimable queue beside the cache endpoints, and -coord-url workers
// claim jobs under time-bounded leases instead of owning a static
// shard — workers may join or leave (or crash) mid-run, expired leases
// requeue automatically, and when the queue drains the coordinator
// writes a merged artifact that `eptest -merge` renders byte-identical
// to a single-process run. -auth-token protects either server with a
// shared bearer token.
//
// Suite runs scale beyond the base catalog through the campaign matrix
// (see docs/ARCHITECTURE.md): -matrix expands every application into a
// deterministic grid of engine-option sweeps, site cuts, and multi-site
// compositions — an order of magnitude more campaigns — and prints a
// per-axis rollup after the suite report; -filter GLOB narrows any
// suite run to the jobs whose name/variant label matches.
//
// Every mode is observable (see docs/OBSERVABILITY.md): -trace FILE
// records each suite run as a Chrome trace_event span tree,
// -metrics-json FILE dumps the worker's metrics registry after the run,
// the servers expose Prometheus text at GET /metrics (the coordinator
// adds a live GET /v1/status JSON snapshot and a self-refreshing HTML
// page at GET /status), and -pprof ADDR starts the opt-in profiling
// listener on any long-running process.
//
// Usage:
//
//	eptest -list
//	eptest -campaign turnin [-fixed] [-per-point] [-v] [-j N]
//	eptest -all [-matrix] [-filter GLOB] [-j N] [-v] [-cache DIR | -cache-url URL] [-shard k/n] [-bench-json FILE]
//	eptest -all [-matrix] [-filter GLOB] -coord-url URL [-worker NAME] [-j N]
//	eptest -all ... [-trace FILE] [-metrics-json FILE] [-pprof ADDR]
//	eptest -merge DIR [-matrix]
//	eptest -bench-gate BASELINE.json -bench-json FRESH.json [-gate-tolerance F]
//	eptest -serve-cache ADDR -cache DIR [-auth-token TOKEN] [-pprof ADDR]
//	eptest -serve-coord ADDR -cache DIR [-matrix] [-filter GLOB] [-lease DUR] [-campaign-retention DUR] [-auth-token TOKEN] [-pprof ADDR]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/core/coord"
	"repro/internal/core/findings"
	"repro/internal/core/inject"
	"repro/internal/core/obs"
	"repro/internal/core/report"
	"repro/internal/core/sched"
	"repro/internal/core/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// suiteConfig carries the validated -all flags into runSuite.
type suiteConfig struct {
	workers  int
	verbose  bool
	cacheDir string
	cacheURL string
	shard    string
	// matrix selects the expanded campaign matrix instead of the base
	// catalog and adds the per-axis rollup to the report.
	matrix bool
	// filter narrows the suite to jobs whose label matches the glob.
	filter string
	// coordURL makes this process an elastic worker: jobs are claimed
	// from the coordinator instead of run from a static (sharded) list,
	// and the same URL serves as the shared result cache.
	coordURL string
	// worker is the display name sent to the coordinator.
	worker string
	// authToken is the shared bearer token for remote transports.
	authToken string
	// benchJSON, when set, writes machine-readable wall-time and
	// throughput stats for the run to the named file.
	benchJSON string
	// traceFile, when set, records every run, cache round trip and
	// coordinator call as a Chrome trace_event file.
	traceFile string
	// metricsJSON, when set, dumps the worker's metrics registry to the
	// named file after the run.
	metricsJSON string
	// findingsOut, when set, writes the suite's violations as canonical
	// machine-readable finding records to the named file.
	findingsOut string
	// pprofAddr, when set, serves net/http/pprof on a side listener for
	// the duration of the run.
	pprofAddr string
	// tty enables the live progress renderer; run() sets it when
	// stdout is a terminal and -v is off.
	tty bool
}

func run(args []string, stdout, stderr io.Writer) int {
	return runContext(context.Background(), args, stdout, stderr)
}

// runContext is run with a stop for the serve modes: -serve-cache and
// -serve-coord return once ctx is done and every request they were
// serving has finished. Every other mode ignores ctx.
func runContext(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eptest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list        = fs.Bool("list", false, "list available campaigns")
		campaign    = fs.String("campaign", "", "campaign to run (see -list)")
		all         = fs.Bool("all", false, "run every catalog campaign, both variants, as one suite")
		workers     = fs.Int("j", 1, "concurrent injection runs (must be >= 1)")
		fixed       = fs.Bool("fixed", false, "run against the repaired program variant")
		perPoint    = fs.Bool("per-point", false, "print the per-interaction-point breakdown")
		verbose     = fs.Bool("v", false, "print every injection (or, with -all, per-campaign progress and dispatcher stats)")
		cache       = fs.String("cache", "", "with -all: result-store directory; replay campaigns whose fingerprint is cached")
		cacheURL    = fs.String("cache-url", "", "with -all: remote cache server URL (a running `eptest -serve-cache`)")
		shard       = fs.String("shard", "", "with -all and a cache: run only partition \"k/n\" of the suite and write a shard artifact to the store")
		matrix      = fs.Bool("matrix", false, "with -all: run the expanded campaign matrix (option sweeps, site cuts, multi-site compositions) instead of the base catalog; with -merge: render the per-axis rollup")
		filter      = fs.String("filter", "", "with -all: run only jobs whose \"name/variant\" label matches GLOB ('*' crosses the separator, e.g. 'lpr*' or '*+nodedup*')")
		merge       = fs.String("merge", "", "merge the shard artifacts in a result-store directory and print the combined suite report")
		serveCache  = fs.String("serve-cache", "", "serve the -cache store over HTTP at ADDR (e.g. :7077) for -cache-url workers")
		serveCoord  = fs.String("serve-coord", "", "serve the -cache store AND the job catalog as a lease-based claim queue at ADDR for -coord-url workers (catalog selected by -matrix/-filter)")
		coordURL    = fs.String("coord-url", "", "with -all: claim jobs from a running `eptest -serve-coord` instead of owning a static shard; the same URL is used as the shared result cache")
		workerName  = fs.String("worker", "", "with -coord-url: worker name shown in the coordinator report (default host-pid)")
		authToken   = fs.String("auth-token", "", "shared bearer token: required of clients by -serve-cache/-serve-coord, sent by -cache-url/-coord-url workers")
		lease       = fs.Duration("lease", coord.DefaultLeaseTTL, "with -serve-coord: claim lease TTL; a worker silent this long loses its jobs back to the queue")
		retention   = fs.Duration("campaign-retention", coord.DefaultCampaignRetention, "with -serve-coord: how long a finished named campaign's status record stays visible before it is garbage-collected (0 keeps records forever)")
		snapshots   = fs.Bool("snapshots", true, "build each campaign world once and fork copy-on-write snapshots per injection run; -snapshots=false rebuilds every world from scratch (byte-identical results, for cross-checking)")
		oracleSeed  = fs.Bool("oracle-seed", true, "precompute each campaign's security-oracle state over the clean trace and evaluate each run from its armed point; -oracle-seed=false re-walks every run's full trace (byte-identical results, for cross-checking)")
		benchJSON   = fs.String("bench-json", "", "with -all: write machine-readable wall-time/throughput stats for the run to FILE; with -bench-gate: the fresh run's record to judge")
		benchGate   = fs.String("bench-gate", "", "compare the fresh -bench-json FILE against this committed baseline record and fail on a throughput regression (see -gate-tolerance)")
		gateTol     = fs.Float64("gate-tolerance", defaultGateTolerance, "with -bench-gate: allowed fractional throughput drop before the gate fails (0.4 = fail below 60% of baseline)")
		traceFile   = fs.String("trace", "", "with -all: record every injection run, cache round trip and coordinator call as a Chrome trace_event FILE (open in chrome://tracing or Perfetto)")
		metricsOut  = fs.String("metrics-json", "", "with -all: dump the worker's metrics registry (counters, gauges, histograms) to FILE after the run")
		pprofAddr   = fs.String("pprof", "", "with -all, -serve-cache or -serve-coord: serve net/http/pprof (plus /metrics) on a side listener at ADDR (e.g. localhost:6060)")
		findingsOut = fs.String("findings", "", "with -all or -merge: write the suite's violations as canonical machine-readable finding records (schema eptest-findings/1) to FILE")
		diffOld     = fs.String("diff", "", "semantically diff two findings files: `eptest -diff OLD NEW` classifies drift as new/fixed/changed instead of byte inequality")
		diffFailOn  = fs.String("diff-fail-on", "", "with -diff: exit non-zero when the diff contains any finding in the named drift classes (comma-separated from new, changed, fixed; or 'any'/'none')")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Applied unconditionally (not only when the flag is passed): run() is
	// re-entered by tests, and the toggles are process-wide.
	inject.SetWorldSnapshots(*snapshots)
	inject.SetOracleSeeding(*oracleSeed)

	if *workers < 1 {
		fmt.Fprintf(stderr, "eptest: -j %d is not a worker count; pass how many injection runs may execute concurrently (-j 1 for sequential, -j 8 for eight workers)\n", *workers)
		return 2
	}
	if *authToken != "" && *serveCache == "" && *serveCoord == "" && *cacheURL == "" && *coordURL == "" {
		fmt.Fprintln(stderr, "eptest: -auth-token does nothing without -serve-cache, -serve-coord, -cache-url or -coord-url")
		return 2
	}
	if *lease != coord.DefaultLeaseTTL && *serveCoord == "" {
		fmt.Fprintln(stderr, "eptest: -lease is a coordinator-side setting; it needs -serve-coord (workers inherit the TTL at registration)")
		return 2
	}
	if *retention != coord.DefaultCampaignRetention && *serveCoord == "" {
		fmt.Fprintln(stderr, "eptest: -campaign-retention is a coordinator-side setting; it needs -serve-coord")
		return 2
	}
	if *benchGate != "" {
		if *list || *all || *campaign != "" || *merge != "" || *serveCache != "" || *serveCoord != "" {
			fmt.Fprintln(stderr, "eptest: -bench-gate runs alone, comparing two bench-json records; produce the fresh one first with `eptest -all -bench-json FILE`")
			return 2
		}
		if *benchJSON == "" {
			fmt.Fprintln(stderr, "eptest: -bench-gate needs -bench-json FILE naming the fresh run's record")
			return 2
		}
		return runBenchGate(*benchGate, *benchJSON, *gateTol, stdout, stderr)
	}
	if *gateTol != defaultGateTolerance {
		fmt.Fprintln(stderr, "eptest: -gate-tolerance does nothing without -bench-gate")
		return 2
	}
	if *diffOld != "" {
		if fs.NArg() == 0 {
			fmt.Fprintln(stderr, "eptest: -diff OLD needs exactly one NEW findings file as its argument: `eptest -diff OLD NEW`")
			return 2
		}
		// Parsing stops at the first positional argument, so flags
		// written after NEW (`eptest -diff OLD NEW -diff-fail-on new`)
		// arrive as leftovers; take NEW, then parse the rest.
		newPath := fs.Arg(0)
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return 2
		}
		if fs.NArg() != 0 {
			fmt.Fprintln(stderr, "eptest: -diff compares exactly two findings files: `eptest -diff OLD NEW`")
			return 2
		}
		if *list || *all || *campaign != "" || *merge != "" || *serveCache != "" || *serveCoord != "" || *findingsOut != "" {
			fmt.Fprintln(stderr, "eptest: -diff runs alone, comparing two findings files; produce them first with `eptest -all -findings FILE`")
			return 2
		}
		return runDiff(*diffOld, newPath, *diffFailOn, stdout, stderr)
	}
	if *diffFailOn != "" {
		fmt.Fprintln(stderr, "eptest: -diff-fail-on gates a findings diff; it needs -diff OLD NEW")
		return 2
	}
	if *findingsOut != "" && !*all && *merge == "" {
		fmt.Fprintln(stderr, "eptest: -findings exports a suite's violation records; it requires -all or -merge")
		return 2
	}
	if (*traceFile != "" || *metricsOut != "") && !*all {
		fmt.Fprintln(stderr, "eptest: -trace and -metrics-json record a suite run; they require -all")
		return 2
	}
	if *pprofAddr != "" && !*all && *serveCache == "" && *serveCoord == "" {
		fmt.Fprintln(stderr, "eptest: -pprof profiles a long-running process; it needs -all, -serve-cache or -serve-coord")
		return 2
	}
	if *serveCoord != "" {
		if *list || *all || *campaign != "" || *merge != "" || *shard != "" || *cacheURL != "" || *coordURL != "" || *serveCache != "" {
			fmt.Fprintln(stderr, "eptest: -serve-coord runs alone with -cache DIR (plus -matrix/-filter/-lease/-auth-token); start workers separately with -coord-url")
			return 2
		}
		if *cache == "" {
			fmt.Fprintln(stderr, "eptest: -serve-coord needs -cache DIR naming the store directory that holds the cache and the merged artifact")
			return 2
		}
		if *lease <= 0 {
			fmt.Fprintf(stderr, "eptest: -lease %v is not a lease TTL; pass how long a silent worker keeps its claims (e.g. -lease 60s)\n", *lease)
			return 2
		}
		return runServeCoord(ctx, *serveCoord, *cache, *matrix, *filter, *lease, *retention, *authToken, *pprofAddr, stdout, stderr)
	}
	if *serveCache != "" {
		if *list || *all || *campaign != "" || *merge != "" || *shard != "" || *cacheURL != "" || *coordURL != "" || *matrix || *filter != "" {
			fmt.Fprintln(stderr, "eptest: -serve-cache runs alone with -cache DIR (no -list/-all/-campaign/-merge/-shard/-cache-url/-coord-url); start workers separately with -cache-url")
			return 2
		}
		if *cache == "" {
			fmt.Fprintln(stderr, "eptest: -serve-cache needs -cache DIR naming the store directory to serve")
			return 2
		}
		return runServeCache(ctx, *serveCache, *cache, *authToken, *pprofAddr, stdout, stderr)
	}
	if *merge != "" {
		if *list || *all || *campaign != "" || *shard != "" || *cache != "" || *cacheURL != "" || *coordURL != "" || *filter != "" {
			fmt.Fprintln(stderr, "eptest: -merge runs alone (no -list/-all/-campaign/-shard/-cache/-cache-url/-coord-url/-filter)")
			return 2
		}
		return runMerge(*merge, *matrix, *findingsOut, stdout, stderr)
	}
	if *list {
		fmt.Fprintln(stdout, "available campaigns:")
		for _, s := range apps.Catalog() {
			fmt.Fprintf(stdout, "  %-18s %s\n", s.Name, s.Paper)
		}
		return 0
	}
	if *all {
		if *coordURL != "" && (*cache != "" || *cacheURL != "" || *shard != "") {
			fmt.Fprintln(stderr, "eptest: -coord-url replaces -cache/-cache-url/-shard — the coordinator is the cache, and claims replace the static partition")
			return 2
		}
		if *workerName != "" && *coordURL == "" {
			fmt.Fprintln(stderr, "eptest: -worker names this process to a coordinator; it needs -coord-url")
			return 2
		}
		cfg := suiteConfig{
			workers:     *workers,
			verbose:     *verbose,
			cacheDir:    *cache,
			cacheURL:    *cacheURL,
			shard:       *shard,
			matrix:      *matrix,
			filter:      *filter,
			coordURL:    *coordURL,
			worker:      *workerName,
			authToken:   *authToken,
			benchJSON:   *benchJSON,
			traceFile:   *traceFile,
			metricsJSON: *metricsOut,
			findingsOut: *findingsOut,
			pprofAddr:   *pprofAddr,
			// The coordinator hands jobs out one at a time, so the
			// renderer's fixed upfront job list does not apply there.
			tty: !*verbose && *coordURL == "" && isTerminal(stdout),
		}
		return runSuite(cfg, stdout, stderr)
	}
	if *shard != "" || *cache != "" || *cacheURL != "" || *coordURL != "" || *matrix || *filter != "" || *benchJSON != "" || *workerName != "" {
		fmt.Fprintln(stderr, "eptest: -cache, -cache-url, -coord-url, -worker, -shard, -filter and -bench-json require -all; -matrix requires -all or -merge")
		return 2
	}
	if *campaign == "" {
		fmt.Fprintln(stderr, "eptest: -campaign required (or -list / -all)")
		fs.Usage()
		return 2
	}

	spec, err := apps.Lookup(*campaign)
	if err != nil {
		fmt.Fprintf(stderr, "eptest: %v\n", err)
		return 2
	}
	c := spec.Vulnerable()
	if *fixed {
		c = spec.Fixed()
	}
	res, err := runCampaign(c, *workers)
	if err != nil {
		fmt.Fprintf(stderr, "eptest: campaign failed: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, report.Campaign(res))
	if *perPoint {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.PerPoint(res))
	}
	if *verbose {
		fmt.Fprintln(stdout, "\nall injections:")
		for _, in := range res.Injections {
			status := "tolerated"
			if !in.Tolerated() {
				status = "VIOLATED"
			}
			fmt.Fprintf(stdout, "  %-28s %-44s %s\n", in.Point, in.FaultID, status)
		}
	}
	if res.Metric().Violations() > 0 {
		return 1
	}
	return 0
}

// runCampaign dispatches one campaign to the sequential engine or, for
// -j other than 1, the worker-pool scheduler. Both produce identical
// results; the split keeps -j 1 on the engine the paper describes.
func runCampaign(c inject.Campaign, workers int) (*inject.Result, error) {
	if workers == 1 {
		return inject.Run(c)
	}
	return sched.RunCampaign(c, sched.Config{Workers: workers})
}

// suiteTransport opens the result transport the flags select: the
// local directory store, the HTTP cache client (dialled to the cache
// server, or to the coordinator, which serves the same endpoints), or
// nothing. A remote client records its round-trip latencies into reg.
func suiteTransport(cfg suiteConfig, reg *obs.Registry, stderr io.Writer) (store.Transport, string, bool) {
	switch {
	case cfg.cacheDir != "" && cfg.cacheURL != "":
		fmt.Fprintln(stderr, "eptest: -cache and -cache-url are alternative transports; pass exactly one")
		return nil, "", false
	case cfg.cacheDir != "":
		st, err := store.Open(cfg.cacheDir)
		if err != nil {
			fmt.Fprintf(stderr, "eptest: %v\n", err)
			return nil, "", false
		}
		return st, st.Dir(), true
	case cfg.cacheURL != "" || cfg.coordURL != "":
		rawURL, hint := cfg.cacheURL, "-serve-cache"
		if cfg.coordURL != "" {
			rawURL, hint = cfg.coordURL, "-serve-coord"
		}
		cl, err := store.Dial(rawURL, store.WithToken(cfg.authToken), store.WithMetrics(reg))
		if err != nil {
			fmt.Fprintf(stderr, "eptest: %v (start one with `eptest %s ADDR -cache DIR`)\n", err, hint)
			return nil, "", false
		}
		return cl, cl.Base(), true
	}
	return nil, "", true
}

// runSuite schedules the full catalog through the work-stealing
// dispatcher and prints the summary table and clustered findings. The
// exit code reflects scheduling health (a campaign that fails to
// plan), not violations: the suite intentionally includes vulnerable
// variants, so findings are the expected output, not an error.
//
// With a cache transport the suite runs incrementally; with a shard
// spec it runs one deterministic partition of the job list and
// publishes a shard artifact for a later -merge. The suite report
// proper (summary table + clusters) always comes first and is
// identical between cold and warm cache runs; the cache, dispatcher
// and shard sections follow.
func runSuite(cfg suiteConfig, stdout, stderr io.Writer) int {
	// The shard partition — and the catalog its artifact records — is
	// over the filtered job list, so every shard of one merge must be
	// produced with the same -matrix and -filter flags; the merge's
	// catalog check rejects mixtures, and the coordinator rejects
	// workers whose catalog differs from its own.
	jobs, catalog, err := suiteCatalog(cfg.matrix, cfg.filter)
	if err != nil {
		fmt.Fprintf(stderr, "eptest: %v\n", err)
		return 2
	}
	// The registry always exists (registration is cheap and the handles
	// are atomic); the flags only decide whether its contents leave the
	// process. The tracer is per-flag: a nil *obs.Tracer disables every
	// span site.
	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if cfg.traceFile != "" {
		tracer, err = obs.StartTrace(cfg.traceFile)
		if err != nil {
			fmt.Fprintf(stderr, "eptest: %v\n", err)
			return 2
		}
		tracer.NameProcess("eptest " + workerDisplayName(cfg.worker))
		defer tracer.Close()
	}
	// The pprof banner goes to stderr so the report on stdout stays
	// byte-identical with profiling on.
	if !startPprof(cfg.pprofAddr, reg, stderr, stderr) {
		return 2
	}
	// Coordinator mode: register against the claim queue before
	// anything else, so a malformed URL, a wrong token, or a catalog
	// mismatch fails fast, before any transport or work starts.
	var (
		coordClient *coord.Client
		source      *coord.Source
	)
	if cfg.coordURL != "" {
		var err error
		coordClient, err = coord.Dial(cfg.coordURL, coord.WithToken(cfg.authToken), coord.WithMetrics(reg))
		if err != nil {
			fmt.Fprintf(stderr, "eptest: %v (start one with `eptest -serve-coord ADDR -cache DIR`)\n", err)
			return 2
		}
		if err := coordClient.Register(workerDisplayName(cfg.worker), catalog); err != nil {
			fmt.Fprintf(stderr, "eptest: %v\n", err)
			return 2
		}
		if source, err = coord.NewSource(coordClient, jobs, coord.WithSourceTracer(tracer)); err != nil {
			fmt.Fprintf(stderr, "eptest: %v\n", err)
			return 2
		}
		defer source.Close()
	}

	var (
		spec    sched.ShardSpec
		indices []int
	)
	tr, dest, ok := suiteTransport(cfg, reg, stderr)
	if !ok {
		return 2
	}
	if cfg.shard != "" {
		var err error
		spec, err = sched.ParseShard(cfg.shard)
		if err != nil {
			fmt.Fprintf(stderr, "eptest: %v\n", err)
			return 2
		}
		if tr == nil {
			fmt.Fprintln(stderr, "eptest: -shard needs -cache DIR or -cache-url URL to hold the shard artifact")
			return 2
		}
		jobs, indices = sched.ShardJobs(jobs, spec)
		if len(jobs) == 0 {
			fmt.Fprintf(stderr, "eptest: shard %s of the %d-job catalog selects zero jobs; lower n or broaden -filter\n", spec, len(catalog))
			return 2
		}
	}

	opt := sched.SuiteOptions{Workers: cfg.workers, Metrics: reg, Tracer: tracer}
	if tr != nil {
		opt.Cache = tr
	}
	var progress *progressRenderer
	switch {
	case cfg.tty:
		progress = newProgressRenderer(stdout, len(jobs))
		opt.OnEvent = progress.Handle
	case cfg.verbose:
		opt.OnEvent = func(ev sched.Event) {
			switch ev.Kind {
			case sched.EventPlanned:
				fmt.Fprintf(stdout, "[%s] planned %d injection runs\n", ev.Job.Label(), ev.Total)
			case sched.EventDone:
				switch {
				case ev.Err != nil:
					fmt.Fprintf(stdout, "[%s] FAILED: %v\n", ev.Job.Label(), ev.Err)
				case ev.Cached:
					fmt.Fprintf(stdout, "[%s] cached (%d runs replayed)\n", ev.Job.Label(), ev.Total)
				default:
					fmt.Fprintf(stdout, "[%s] done (%d/%d)\n", ev.Job.Label(), ev.Done, ev.Total)
				}
			}
		}
	}
	// The Mallocs delta around the suite feeds allocs_per_run in the
	// bench record; ReadMemStats stops the world, so only pay for it
	// when a record was requested.
	var memBefore runtime.MemStats
	if cfg.benchJSON != "" {
		runtime.ReadMemStats(&memBefore)
	}
	start := time.Now()
	var sr *sched.SuiteResult
	if source != nil {
		sr = sched.RunSuiteFrom(source, opt)
		source.Close()
	} else {
		sr = sched.RunSuite(jobs, opt)
	}
	wall := time.Since(start)
	var suiteAllocs uint64
	if cfg.benchJSON != "" {
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		suiteAllocs = memAfter.Mallocs - memBefore.Mallocs
	}
	if progress != nil {
		progress.Close()
	}
	// The findings fold runs unconditionally, like the rest of the
	// registry: -findings only decides whether the records leave the
	// process, while eptest_findings_total is always live for
	// -metrics-json and the bench record.
	findingsReport := findings.FromSuite(sr)
	findings.Instrument(reg, findingsReport)
	fmt.Fprint(stdout, report.SuiteRun(sr))
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, report.Clusters(sched.ClusterSuite(sr)))
	if cfg.matrix {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.Matrix(sr))
	}
	if tr != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.CacheStats(sr))
		if cl, ok := tr.(*store.Client); ok {
			fmt.Fprint(stdout, report.CacheTransport(cl))
		}
	}
	if coordClient != nil {
		fmt.Fprintln(stdout)
		if st, err := coordClient.State(); err != nil {
			fmt.Fprintf(stdout, "coordinator: state unavailable: %v\n", err)
		} else {
			fmt.Fprint(stdout, st.Render())
		}
	}
	if cfg.verbose {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.Dispatch(sr))
	}
	if !spec.IsZero() {
		if err := tr.WriteShard(spec, catalog, indices, sr); err != nil {
			fmt.Fprintf(stderr, "eptest: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "shard %s: wrote %d job(s) to %s\n", spec, len(jobs), dest)
	}
	if cfg.findingsOut != "" {
		if err := findingsReport.WriteFile(cfg.findingsOut); err != nil {
			fmt.Fprintf(stderr, "eptest: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d finding record(s) to %s\n", len(findingsReport.Findings), cfg.findingsOut)
	}
	if tracer != nil {
		// The explicit Close (the deferred one is a backstop for error
		// paths) flushes the span stream and surfaces write errors while
		// the exit code can still reflect them.
		if err := tracer.Close(); err != nil {
			fmt.Fprintf(stderr, "eptest: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote trace (%d events) to %s\n", tracer.Events(), cfg.traceFile)
	}
	if cfg.metricsJSON != "" {
		if err := reg.WriteJSONFile(cfg.metricsJSON); err != nil {
			fmt.Fprintf(stderr, "eptest: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote metrics snapshot to %s\n", cfg.metricsJSON)
	}
	if cfg.benchJSON != "" {
		if err := writeBenchJSON(cfg, sr, len(catalog), wall, suiteAllocs, source, reg); err != nil {
			fmt.Fprintf(stderr, "eptest: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote benchmark stats to %s\n", cfg.benchJSON)
	}
	if source != nil {
		if err := source.Err(); err != nil {
			fmt.Fprintf(stderr, "eptest: %v\n", err)
			return 1
		}
	}
	if len(sr.Failed()) > 0 {
		return 1
	}
	return 0
}

// runMerge recombines the shard artifacts under dir into one suite
// report — byte-identical, up to the trailing merged-shard section, to
// the report an unsharded -all run over the same catalog prints. With
// matrix set (shards produced by -matrix workers), the per-axis rollup
// is rendered in its unsharded position too.
func runMerge(dir string, matrix bool, findingsOut string, stdout, stderr io.Writer) int {
	st, err := store.Open(dir)
	if err != nil {
		fmt.Fprintf(stderr, "eptest: %v\n", err)
		return 2
	}
	sr, infos, err := st.MergeShards()
	if err != nil {
		fmt.Fprintf(stderr, "eptest: %v\n", err)
		return 2
	}
	fmt.Fprint(stdout, report.SuiteRun(sr))
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, report.Clusters(sched.ClusterSuite(sr)))
	if matrix {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.Matrix(sr))
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, report.MergedShards(infos))
	if findingsOut != "" {
		// Findings are keyed and sorted by content, so the merged
		// export is byte-identical to the file a single-process -all
		// run writes.
		rep := findings.FromSuite(sr)
		if err := rep.WriteFile(findingsOut); err != nil {
			fmt.Fprintf(stderr, "eptest: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d finding record(s) to %s\n", len(rep.Findings), findingsOut)
	}
	if len(sr.Failed()) > 0 {
		return 1
	}
	return 0
}

// runServeCache serves the store at dir over HTTP until the process is
// terminated or ctx is done. Killing the server at any moment is safe:
// every store write goes through an atomic rename, so readers and a
// later -merge never observe partial files. A non-empty token puts the server
// behind `Authorization: Bearer` (GET /v1/meta stays open for
// liveness probes; GET /metrics needs the token like any other route).
func runServeCache(ctx context.Context, addr, dir, token, pprofAddr string, stdout, stderr io.Writer) int {
	st, err := store.Open(dir)
	if err != nil {
		fmt.Fprintf(stderr, "eptest: %v\n", err)
		return 2
	}
	reg := obs.NewRegistry()
	if !startPprof(pprofAddr, reg, stdout, stderr) {
		return 2
	}
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("/", store.NewServer(st, store.WithServerMetrics(reg)))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "eptest: -serve-cache %s: %v\n", addr, err)
		return 2
	}
	fmt.Fprintf(stdout, "eptest: cache server listening on %s (store %s)\n", ln.Addr(), st.Dir())
	if err := serveUntil(ctx, ln, store.BearerAuth(token, mux)); err != nil {
		fmt.Fprintf(stderr, "eptest: %v\n", err)
		return 1
	}
	return 0
}

// serveUntil serves h on ln until serving fails or ctx is done. When ctx
// is done it stops accepting connections, cancels the context of every
// request in flight (a long-polling claim returns at once), waits for
// their handlers to finish, and returns nil.
func serveUntil(ctx context.Context, ln net.Listener, h http.Handler) error {
	srv := &http.Server{
		Handler:     h,
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	err := srv.Shutdown(context.Background())
	<-served
	return err
}

// startPprof starts the opt-in profiling listener when the -pprof flag
// was given. It returns false only on a bind failure; an empty addr is
// a no-op success. Should the listener fail later, the error goes to
// stderr and the run carries on without profiling.
func startPprof(addr string, reg *obs.Registry, stdout, stderr io.Writer) bool {
	if addr == "" {
		return true
	}
	got, served, err := obs.ServePprof(addr, reg)
	if err != nil {
		fmt.Fprintf(stderr, "eptest: %v\n", err)
		return false
	}
	go func() {
		for err := range served {
			fmt.Fprintf(stderr, "eptest: %v\n", err)
		}
	}()
	fmt.Fprintf(stdout, "eptest: pprof listening on http://%s/debug/pprof/\n", got)
	return true
}
