package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core/inject"
	"repro/internal/core/sched"
	"repro/internal/core/store"
)

// replaySpec is what the attribution replay mirrors: the workload's
// jobs, the store its dispatcher reads (nil for none), whether its
// dispatcher fingerprints campaigns (it does whenever a cache is
// attached), and the findings export the replayed results must equal.
type replaySpec struct {
	jobs         []sched.Job
	cache        sched.Cache
	fingerprints bool
	ref          []byte
	withMatrix   bool
}

// replay pushes the jobs through the engine one call at a time on one
// goroutine, in the order the dispatcher makes the same calls: build,
// source fingerprint and store probe, plan, plan fingerprint and probe,
// then every run through RunOneObserved with its world/exec/compare
// phases. The dispatcher exposes no phase timings without in-program
// telemetry, so this replay is where the inject split comes from; it
// is for attribution only and is not a measured pass. Each result also
// goes through the store codec once. The replayed results must produce
// the workload's reference findings.
func replay(tr *tracer, rs replaySpec) error {
	root := tr.root("replay")
	sr := &sched.SuiteResult{Campaigns: make([]sched.CampaignResult, len(rs.jobs))}
	for i, job := range rs.jobs {
		res, err := replayJob(root, rs, job)
		if err != nil {
			return fmt.Errorf("replay %s: %w", job.Label(), err)
		}
		sr.Campaigns[i] = sched.CampaignResult{Job: job, Result: res}
		sp := root.child("store.codec")
		b, err := store.EncodeResult(res)
		if err == nil {
			_, err = store.DecodeResult(b)
		}
		sp.end()
		if err != nil {
			return fmt.Errorf("replay %s: store codec: %w", job.Label(), err)
		}
	}
	root.end()
	out, err := render(nil, sr, rs.withMatrix)
	if err != nil {
		return err
	}
	if !bytes.Equal(out.findings, rs.ref) {
		return fmt.Errorf("replayed findings differ from the workload's reference")
	}
	return nil
}

// engineOf is the job's effective engine options; the suites here use
// the default engine for every job without an override.
func engineOf(job sched.Job) inject.Options {
	if job.Engine != nil {
		return *job.Engine
	}
	return inject.Options{}
}

func replayJob(root *active, rs replaySpec, job sched.Job) (*inject.Result, error) {
	sp := root.child("apps.build")
	c := job.Build()
	sp.end()
	engine := engineOf(job)
	if rs.fingerprints {
		sp = root.child("inject.fingerprint")
		fp, ok := inject.SourceFingerprint(c, engine, job.Name, job.Variant)
		sp.end()
		if hit, found := probe(root, rs.cache, fp, ok); found {
			return hit, nil
		}
	}
	sp = root.child("inject.plan")
	plan, err := inject.PrepareWith(c, engine)
	sp.end()
	if err != nil {
		return nil, err
	}
	if rs.fingerprints {
		sp = root.child("inject.fingerprint")
		fp := plan.Fingerprint(job.Name, job.Variant)
		sp.end()
		if hit, found := probe(root, rs.cache, fp, true); found {
			return hit, nil
		}
	}
	out := make([]inject.Injection, plan.NumRuns())
	for i := range out {
		run := root.child("inject.run")
		out[i] = plan.RunOneObserved(i, func(phase string, start time.Time, d time.Duration) {
			run.record("inject."+phase, start, d)
		})
		run.end()
	}
	shell := plan.Shell()
	shell.Injections = out
	return &shell, nil
}

// probe looks a fingerprint up in the replay's store, if it has one.
func probe(root *active, cache sched.Cache, fp string, ok bool) (*inject.Result, bool) {
	if cache == nil || !ok {
		return nil, false
	}
	sp := root.child("store.get")
	defer sp.end()
	return cache.Get(fp)
}

// allocsPerRun counts heap allocations per injection run over the
// workload's executed runs, untraced, with RunOneObserved given no
// observer. Campaigns the workload replays from its store run nothing
// and are skipped; with no runs at all it returns 0.
func allocsPerRun(rs replaySpec) (float64, error) {
	var total uint64
	runs := 0
	var before, after runtime.MemStats
	for _, job := range rs.jobs {
		c := job.Build()
		engine := engineOf(job)
		if rs.cache != nil {
			if fp, ok := inject.SourceFingerprint(c, engine, job.Name, job.Variant); ok {
				if _, found := rs.cache.Get(fp); found {
					continue
				}
			}
		}
		plan, err := inject.PrepareWith(c, engine)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", job.Label(), err)
		}
		runtime.ReadMemStats(&before)
		for i := 0; i < plan.NumRuns(); i++ {
			plan.RunOneObserved(i, nil)
		}
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
		runs += plan.NumRuns()
	}
	if runs == 0 {
		return 0, nil
	}
	return float64(total) / float64(runs), nil
}
