package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/apps/matrix"
	"repro/internal/core/sched"
)

// cliWorkload runs the eptest binary on the lpr slice of the matrix,
// one child at a time, with standard output on the null device as in a
// CI job that keeps only the findings file.
type cliWorkload struct {
	e *env

	golden   []byte
	findings string // the child's -findings file
	// The same slice, for the in-process comparison.
	catalogMS float64
	jobs      []sched.Job
	refReport string
}

func (c *cliWorkload) args() []string {
	return []string{"-all", "-matrix", "-filter", lprFilter, "-j", fmt.Sprint(workers), "-findings", c.findings}
}

func (c *cliWorkload) setup() error {
	var err error
	if c.golden, err = c.e.golden("findings-matrix-lpr.json"); err != nil {
		return err
	}
	if c.e.eptest == "" {
		return fmt.Errorf("cli-lpr needs the eptest binary (-eptest)")
	}
	c.findings = filepath.Join(c.e.work, "findings-lpr.json")
	// The first child run is set-up: it is checked but not measured.
	if p := c.pass(nil); p.failures > 0 {
		return fmt.Errorf("first child run: %s", strings.Join(p.problems, "; "))
	}
	c.afterPass()
	return nil
}

func (c *cliWorkload) pass(root *active) passResult {
	p := passResult{campaigns: lprCampaigns}
	// Standard output goes to the null device explicitly: it is a
	// character device, so the CLI's terminal check switches its
	// progress renderer on, and that is part of what this workload
	// measures. A pipe or a file would hide it.
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		p.fail("%v", err)
		return p
	}
	defer null.Close()
	var stderr bytes.Buffer
	cmd := exec.Command(c.e.eptest, c.args()...)
	cmd.Dir = c.e.root
	cmd.Stdout = null
	cmd.Stderr = &stderr
	sp := root.child("cli.exec")
	err = cmd.Run()
	sp.end()
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			p.childCPU = rusageCPU(ru)
			p.childRSS = float64(ru.Maxrss) / 1024 // kilobytes on Linux
		}
	}
	if err != nil {
		p.fail("eptest %s: %v: %s", strings.Join(c.args(), " "), err, strings.TrimSpace(stderr.String()))
		return p
	}
	got, err := os.ReadFile(c.findings)
	if err != nil {
		p.fail("%v", err)
		return p
	}
	if !bytes.Equal(got, c.golden) {
		p.fail("findings file differs from golden findings-matrix-lpr.json (%d vs %d bytes)", len(got), len(c.golden))
		return p
	}
	p.runs = lprRuns
	return p
}

// afterPass removes the findings file so the next child must write it.
func (c *cliWorkload) afterPass() { os.Remove(c.findings) }

// inprocJobs builds the CLI's job list for the slice in-process.
func (c *cliWorkload) inprocJobs() []sched.Job {
	if c.jobs == nil {
		start := time.Now()
		all := matrix.SuiteJobs()
		c.catalogMS = ms(time.Since(start))
		c.jobs = sched.FilterJobs(all, lprFilter)
	}
	return c.jobs
}

// inprocPass is the child's work done through in-process calls: the
// same slice on the same number of workers, with the findings export
// and the report rendered and checked.
func (c *cliWorkload) inprocPass() (time.Duration, passResult) {
	jobs := c.inprocJobs()
	start := time.Now()
	sr := sched.RunSuite(jobs, sched.SuiteOptions{Workers: workers})
	var p passResult
	checkSuite(&p, sr, lprCampaigns, lprRuns)
	out, err := render(nil, sr, true)
	if err != nil {
		p.fail("%v", err)
	} else {
		checkOutput(&p, out, c.golden, &c.refReport)
	}
	return time.Since(start), p
}

// inprocAllocsPerRun is allocs_per_run for cli-lpr. The child's heap
// counters cannot be read from outside it, so the count comes from the
// same slice run in-process, over n passes.
func (c *cliWorkload) inprocAllocsPerRun(n int) (float64, passResult) {
	// The first pass builds the catalog and warms up; it is checked but
	// not counted.
	_, all := c.inprocPass()
	runs := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		_, p := c.inprocPass()
		runs += p.runs
		all.campaigns += p.campaigns
		all.failures += p.failures
		all.problems = append(all.problems, p.problems...)
	}
	runtime.ReadMemStats(&after)
	if runs == 0 {
		return 0, all
	}
	return float64(after.Mallocs-before.Mallocs) / float64(runs), all
}

func (c *cliWorkload) replay() replaySpec {
	return replaySpec{jobs: c.inprocJobs(), ref: c.golden, withMatrix: true}
}
