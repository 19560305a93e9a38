package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core/coord"
	"repro/internal/core/sched"
	"repro/internal/core/store"
)

// TestMain lets a test re-exec this binary as a real eptest process:
// with the subprocess marker set, the binary runs the CLI instead of
// the test suite — the only way to SIGKILL a coordinator mid-campaign
// and watch a genuinely new process recover its journal.
func TestMain(m *testing.M) {
	if os.Getenv("EPTEST_COORD_SUBPROCESS") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestCoordRestartResumesMidCampaign is the durability acceptance test
// — the ISSUE 9 criterion: a coordinator SIGKILLed mid-campaign (two
// jobs completed, two open) restarts against the same store, resumes
// from its journal instead of reopening finished work, a worker drains
// the remainder, and the merged report is byte-identical to a
// single-process `eptest -all` over the same slice.
func TestCoordRestartResumesMidCampaign(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()

	var full, errb bytes.Buffer
	if code := run([]string{"-all", "-j", "4", "-filter", "lpr*"}, &full, &errb); code != 0 {
		t.Fatalf("-all exit = %d, stderr = %s", code, errb.String())
	}

	// Generation one: a real OS process, so SIGKILL means SIGKILL.
	var out, errOut syncBuffer
	cmd := exec.Command(os.Args[0], "-serve-coord", "127.0.0.1:0", "-cache", dir,
		"-filter", "lpr*", "-lease", "300ms")
	cmd.Env = append(os.Environ(), "EPTEST_COORD_SUBPROCESS=1")
	cmd.Stdout = &out
	cmd.Stderr = &errOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	re := regexp.MustCompile(`listening on ([0-9.:]+) `)
	var url string
	deadline := time.Now().Add(10 * time.Second)
	for url == "" {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			url = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator subprocess never announced its address; stdout %q stderr %q", out.String(), errOut.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if strings.Contains(out.String(), "resumed from journal") {
		t.Fatalf("fresh coordinator claims to have resumed:\n%s", out.String())
	}

	// Half the campaign lands before the kill: a raw client claims jobs
	// 0 and 1 and completes them with the real campaign results, which
	// the coordinator journals (and fsyncs) before acknowledging.
	jobs, catalog, err := suiteCatalog(false, "lpr*")
	if err != nil {
		t.Fatal(err)
	}
	ref := sched.RunSuite(jobs, sched.SuiteOptions{Workers: 4})
	cl, err := coord.Dial(url)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Register("head", catalog); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		idx, status, err := cl.Claim()
		if err != nil || status != coord.ClaimGranted || idx != i {
			t.Fatalf("claim %d = (%d, %v, %v)", i, idx, status, err)
		}
		b, err := store.EncodeResult(ref.Campaigns[idx].Result)
		if err != nil {
			t.Fatal(err)
		}
		name, variant, _ := strings.Cut(catalog[idx], "/")
		if dup, err := cl.Complete(idx, coord.Outcome{Name: name, Variant: variant, Result: b}); err != nil || dup {
			t.Fatalf("complete %d = (dup %v, %v)", idx, dup, err)
		}
	}

	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Generation two resumes over the same store: two jobs done from
	// the journal, two pending, and it says so.
	out2, err2 := serveInProcess(t, "-serve-coord", "127.0.0.1:0", "-cache", dir, "-lease", "300ms",
		"-filter", "lpr*")
	deadline = time.Now().Add(5 * time.Second)
	var url2 string
	for url2 == "" {
		if m := re.FindStringSubmatch(out2.String()); m != nil {
			url2 = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted coordinator never announced its address; stdout %q stderr %q", out2.String(), err2.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(out2.String(), "resumed from journal — 2 done, 0 claimed, 2 pending of 4 jobs") {
		t.Fatalf("restarted coordinator did not resume mid-campaign:\n%s", out2.String())
	}

	// A worker drains the two open jobs and the coordinator assembles
	// the full merged artifact — half pre-kill, half post-restart.
	var worker, werr bytes.Buffer
	if code := run([]string{"-all", "-j", "4", "-filter", "lpr*",
		"-coord-url", url2, "-worker", "finisher"}, &worker, &werr); code != 0 {
		t.Fatalf("worker exit = %d, stderr = %s", code, werr.String())
	}
	if !strings.Contains(worker.String(), "coordinator: 4 job(s) — 4 done") {
		t.Errorf("worker coordinator section:\n%s", worker.String())
	}

	artifact := filepath.Join(dir, "shards", "shard-1-of-1.json")
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(artifact); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted coordinator never wrote the merged artifact")
		}
		time.Sleep(20 * time.Millisecond)
	}
	var merged, merr bytes.Buffer
	if code := run([]string{"-merge", dir}, &merged, &merr); code != 0 {
		t.Fatalf("-merge exit = %d, stderr = %s", code, merr.String())
	}
	got := merged.String()
	i := strings.Index(got, "merged from")
	if i < 0 {
		t.Fatalf("merge output missing the merged-shard section:\n%s", got)
	}
	if want := full.String(); strings.TrimSuffix(got[:i], "\n") != want {
		t.Errorf("report after kill+restart differs from -all:\n--- all ---\n%s\n--- merged ---\n%s", want, got[:i])
	}
}
