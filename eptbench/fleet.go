package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/core/coord"
	"repro/internal/core/inject"
	"repro/internal/core/sched"
	"repro/internal/core/store"
)

// coldCache is the dispatchers' cache in fleet-base: it never hits and
// keeps nothing. With a cache attached, the dispatcher fingerprints
// every campaign, so completions carry the fingerprint the
// coordinator's Results store files them under, as they do for a
// -coord-url worker; and every run still executes on every pass.
type coldCache struct{}

func (coldCache) Get(string) (*inject.Result, bool)        { return nil, false }
func (coldCache) Put(string, string, *inject.Result) error { return nil }

// tracedSource times every claim a dispatcher makes through a
// coordinator source, and each claimed job's Build: the source hands
// out the jobs it was built with, so the Build wrapper rides on the
// claim.
type tracedSource struct {
	inner *coord.Source
	lane  *active
}

func (s *tracedSource) Next() (sched.SourcedJob, bool) {
	sp := s.lane.async("coord.claim")
	sj, ok := s.inner.Next()
	sp.end()
	if ok {
		sj.Job = wrapJobs([]sched.Job{sj.Job}, s.lane.child)[0]
	}
	return sj, ok
}

func (s *tracedSource) Complete(sj sched.SourcedJob, cr sched.CampaignResult) {
	s.inner.Complete(sj, cr)
}

// fleetWorkload drains the base catalog through a fresh loopback
// coordinator per pass: a file journal, a store as its Results, and two
// coord.Source dispatchers of one worker each.
type fleetWorkload struct {
	e *env

	jobs      []sched.Job // the seed's order
	catalog   []string
	golden    []byte
	refReport string
	dir       string // the current pass's coordinator directory
	hooks     *traceHooks

	// Per traced pass.
	drainMS, journalBytes, requeues, duplicates []float64
}

func (f *fleetWorkload) setup() error {
	var err error
	if f.golden, err = f.e.golden("findings-base.json"); err != nil {
		return err
	}
	f.jobs = f.e.permute(apps.SuiteJobs())
	f.catalog = make([]string, len(f.jobs))
	for i, j := range f.jobs {
		f.catalog[i] = j.Label()
	}
	for i := 0; i < 2; i++ {
		p := f.pass(nil)
		f.afterPass()
		if p.failures > 0 {
			return fmt.Errorf("warm-up pass: %s", strings.Join(p.problems, "; "))
		}
	}
	return nil
}

func (f *fleetWorkload) pass(root *active) passResult {
	var p passResult
	var err error
	if f.dir, err = os.MkdirTemp(f.e.work, "fleet-"); err != nil {
		p.fail("%v", err)
		return p
	}
	sp := root.child("store.Open")
	st, err := store.Open(filepath.Join(f.dir, "results"))
	sp.end()
	if err != nil {
		p.fail("%v", err)
		return p
	}
	var results sched.Cache = st
	if root != nil {
		results = &timedCache{inner: st, open: root.async, h: f.hooks}
	}
	sp = root.child("coord.New")
	journalPath := filepath.Join(f.dir, "coord", "journal.jsonl")
	fj, _, err := coord.OpenFileJournal(journalPath)
	if err != nil {
		sp.end()
		p.fail("%v", err)
		return p
	}
	co := coord.New(f.catalog, coord.Options{Journal: fj, Results: results})
	sp.end()
	sp = root.child("coord.NewServer")
	srv := httptest.NewServer(coord.NewServer(co))
	sp.end()
	defer srv.Close()
	defer fj.Close()

	// The watcher notes when the queue drains; stop releases it if the
	// pass fails first.
	drainedAt := make(chan time.Time, 1)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-co.Drained():
			drainedAt <- time.Now()
		case <-stop:
		}
	}()

	sources := make([]*coord.Source, 2)
	for i := range sources {
		sp := root.child("coord.Dial")
		cl, err := coord.Dial(srv.URL)
		if err == nil {
			err = cl.Register(fmt.Sprintf("bench-%d", i), f.catalog)
		}
		sp.end()
		if err != nil {
			p.fail("%v", err)
			return p
		}
		sp = root.child("coord.NewSource")
		src, err := coord.NewSource(cl, f.jobs)
		sp.end()
		if err != nil {
			p.fail("%v", err)
			return p
		}
		defer src.Close()
		sources[i] = src
	}

	fan := root.fanout("sched.fanout", len(sources))
	parts := make([]*sched.SuiteResult, len(sources))
	returned := make([]time.Time, len(sources))
	var wg sync.WaitGroup
	for i, src := range sources {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opt := sched.SuiteOptions{Workers: 1, Cache: coldCache{}}
			var js sched.JobSource = src
			lane := fan.onLane("sched.RunSuiteFrom")
			if lane != nil {
				js = &tracedSource{inner: src, lane: lane}
				opt.OnEvent = f.hooks.onEvent
			}
			parts[i] = sched.RunSuiteFrom(js, opt)
			returned[i] = time.Now()
			lane.end()
			c := fan.onLane("coord.Source.Close")
			src.Close()
			c.end()
		}()
	}
	wg.Wait()
	fan.end()
	last := returned[0]
	for _, t := range returned[1:] {
		if t.After(last) {
			last = t
		}
	}
	var drained time.Time
	select {
	case drained = <-drainedAt:
	case <-time.After(30 * time.Second):
		p.fail("coordinator did not drain within 30s of the dispatchers returning")
		return p
	}
	for i, src := range sources {
		if err := src.Err(); err != nil {
			p.fail("source %d: %v", i, err)
		}
		p.steals += parts[i].Dispatch.Steals
	}

	sp = root.child("coord.SuiteResult")
	sr, err := co.SuiteResult()
	stats := co.Stats()
	sp.end()
	if err != nil {
		p.fail("%v", err)
		return p
	}
	checkSuite(&p, sr, baseCampaigns, baseRuns)
	out, err := render(root, sr, false)
	if err != nil {
		p.fail("%v", err)
		return p
	}
	checkOutput(&p, out, f.golden, &f.refReport)

	sp = root.child("coord.close")
	srv.Close()
	err = fj.Close()
	sp.end()
	if err != nil {
		p.fail("close journal: %v", err)
	}
	if root != nil {
		fi, err := os.Stat(journalPath)
		if err != nil {
			p.fail("%v", err)
			return p
		}
		f.drainMS = append(f.drainMS, ms(last.Sub(drained)))
		f.journalBytes = append(f.journalBytes, float64(fi.Size()))
		f.requeues = append(f.requeues, float64(stats.Requeues))
		f.duplicates = append(f.duplicates, float64(stats.Duplicates))
	}
	return p
}

// afterPass removes the pass's coordinator directory and flushes the
// removal to disk, so the next pass's journal fsyncs do not also pay
// for this pass's deletions.
func (f *fleetWorkload) afterPass() {
	if f.dir != "" {
		os.RemoveAll(f.dir)
		f.dir = ""
		syscall.Sync()
	}
}

func (f *fleetWorkload) replay() replaySpec {
	return replaySpec{jobs: f.jobs, ref: f.golden, fingerprints: true}
}
