package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core/coord"
)

// startCoordServer launches `eptest -serve-coord` on an ephemeral port
// in-process — short lease so abandoned claims requeue within the
// test's patience — and returns its base URL. The coordinator stops
// when the test ends.
func startCoordServer(t *testing.T, dir string, extra ...string) string {
	t.Helper()
	args := append([]string{"-serve-coord", "127.0.0.1:0", "-cache", dir, "-lease", "300ms"}, extra...)
	out, errb := serveInProcess(t, args...)
	re := regexp.MustCompile(`listening on ([0-9.:]+) `)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1]
		}
		if s := errb.String(); s != "" {
			t.Fatalf("coordinator failed to start: %s", s)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("coordinator never announced its address; stdout %q", out.String())
	return ""
}

// TestCoordElasticFlow is the CLI acceptance test for the distributed
// coordinator — the ISSUE 5 criterion: one of two workers dies
// mid-run (here: a raw client that claims jobs and goes silent,
// exactly the state SIGKILL leaves), the surviving `-coord-url` worker
// drains the queue through lease-expiry requeues, and the merged
// report the coordinator assembles is byte-identical to a
// single-process `eptest -all` over the same slice. A second
// coordinator generation over the same store then replays everything
// source-level from the shared cache.
func TestCoordElasticFlow(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	const token = "s3cret"
	url := startCoordServer(t, dir, "-filter", "lpr*", "-auth-token", token)

	var full, errb bytes.Buffer
	if code := run([]string{"-all", "-j", "4", "-filter", "lpr*"}, &full, &errb); code != 0 {
		t.Fatalf("-all exit = %d, stderr = %s", code, errb.String())
	}

	// The doomed worker: registers, claims two jobs, never completes
	// or renews. Its leases expire and requeue.
	doomed, err := coord.Dial(url, coord.WithToken(token))
	if err != nil {
		t.Fatal(err)
	}
	catalog := []string{"lpr/vulnerable", "lpr/fixed", "lpr-create-site/vulnerable", "lpr-create-site/fixed"}
	if err := doomed.Register("doomed", catalog); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, status, err := doomed.Claim(); err != nil || status != coord.ClaimGranted {
			t.Fatalf("doomed claim = (%v, %v)", status, err)
		}
	}

	// The survivor drains everything, including the requeued jobs.
	var worker, werr bytes.Buffer
	code := run([]string{"-all", "-j", "4", "-filter", "lpr*",
		"-coord-url", url, "-worker", "survivor", "-auth-token", token}, &worker, &werr)
	if code != 0 {
		t.Fatalf("worker exit = %d, stderr = %s", code, werr.String())
	}
	wout := worker.String()
	if !strings.Contains(wout, "coordinator: 4 job(s) — 4 done") {
		t.Errorf("worker coordinator section:\n%s", wout)
	}
	if !strings.Contains(wout, "2 requeue(s) after lease expiry") {
		t.Errorf("worker output does not show the doomed worker's requeues:\n%s", wout)
	}

	// The coordinator writes the merged artifact asynchronously on
	// drain; wait for it, then demand byte-identity with -all.
	artifact := filepath.Join(dir, "shards", "shard-1-of-1.json")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(artifact); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never wrote the merged artifact")
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
		t.Errorf("merged coordinator report differs from -all:\n--- all ---\n%s\n--- merged ---\n%s", want, got[:i])
	}

	// Restart semantics first: a second coordinator over the same
	// store resumes the drained queue from its journal instead of
	// re-opening it.
	resumedOut, resumedErr := serveInProcess(t, "-serve-coord", "127.0.0.1:0", "-cache", dir, "-lease", "300ms",
		"-filter", "lpr*", "-auth-token", token)
	rdl := time.Now().Add(5 * time.Second)
	for !strings.Contains(resumedOut.String(), "resumed from journal") {
		if time.Now().After(rdl) {
			t.Fatalf("restarted coordinator did not resume from journal; stdout %q stderr %q",
				resumedOut.String(), resumedErr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(resumedOut.String(), "4 done, 0 claimed, 0 pending of 4 jobs") {
		t.Errorf("resumed coordinator state:\n%s", resumedOut.String())
	}

	// Elastic second generation: the queue is durable now, so starting
	// a genuinely fresh generation means retiring the old journal.
	// With it gone, every campaign replays source-level from the
	// shared cache the first generation populated.
	if err := os.Remove(filepath.Join(dir, "coord", "journal.jsonl")); err != nil {
		t.Fatal(err)
	}
	url2 := startCoordServer(t, dir, "-filter", "lpr*", "-auth-token", token)
	var warm bytes.Buffer
	if code := run([]string{"-all", "-j", "4", "-filter", "lpr*",
		"-coord-url", url2, "-worker", "warm", "-auth-token", token}, &warm, &werr); code != 0 {
		t.Fatalf("warm worker exit = %d, stderr = %s", code, werr.String())
	}
	if !strings.Contains(warm.String(), "result cache: 4/4 campaigns replayed (100.0% hits)") {
		t.Errorf("warm worker cache section:\n%s", warm.String())
	}
	if !strings.Contains(warm.String(), "source-fingerprint hit") {
		t.Errorf("warm worker replays were not source-level:\n%s", warm.String())
	}
	if suiteReport(warm.String()) != suiteReport(worker.String()) {
		t.Error("suite report differs between cold and warm coordinator runs")
	}
}

// TestCoordWorkerRejectsWrongToken pins the auth failure mode: a
// worker with the wrong bearer token is refused at register time with
// the 401, before any work happens.
func TestCoordWorkerRejectsWrongToken(t *testing.T) {
	t.Parallel()
	url := startCoordServer(t, t.TempDir(), "-filter", "lpr*", "-auth-token", "right")
	var out, errb bytes.Buffer
	code := run([]string{"-all", "-filter", "lpr*", "-coord-url", url, "-auth-token", "wrong"}, &out, &errb)
	if code != 2 {
		t.Fatalf("wrong-token worker exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "401") {
		t.Errorf("stderr does not surface the 401: %s", errb.String())
	}
}

// TestCoordFlagValidation pins the flag-combination errors around the
// coordinator, auth, and bench-json flags.
func TestCoordFlagValidation(t *testing.T) {
	t.Parallel()
	cases := map[string]struct {
		args []string
		want string
	}{
		"serve-coord without store": {[]string{"-serve-coord", ":0"}, "needs -cache DIR"},
		"serve-coord with all":      {[]string{"-serve-coord", ":0", "-cache", "d", "-all"}, "-serve-coord runs alone"},
		"serve-coord with serve":    {[]string{"-serve-coord", ":0", "-cache", "d", "-serve-cache", ":0"}, "-serve-coord runs alone"},
		"serve-coord bad lease":     {[]string{"-serve-coord", ":0", "-cache", "d", "-lease", "0s"}, "not a lease TTL"},
		"lease without serve-coord": {[]string{"-all", "-coord-url", "http://x", "-lease", "10s"}, "needs -serve-coord"},
		"coord-url without all":     {[]string{"-coord-url", "http://x"}, "require -all"},
		"coord-url with cache":      {[]string{"-all", "-coord-url", "http://x", "-cache", "d"}, "replaces -cache"},
		"coord-url with shard":      {[]string{"-all", "-coord-url", "http://x", "-shard", "1/2"}, "replaces -cache"},
		"coord-url malformed":       {[]string{"-all", "-coord-url", "10.0.0.7:7077"}, "coordinator URL"},
		"worker without coord":      {[]string{"-all", "-worker", "w"}, "needs -coord-url"},
		"auth-token alone":          {[]string{"-all", "-auth-token", "t"}, "does nothing"},
		"bench-json without all":    {[]string{"-bench-json", "f.json"}, "require -all"},
	}
	for name, tc := range cases {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Errorf("%s: exit = %d, want 2 (stderr %q)", name, code, errb.String())
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%s: stderr %q missing %q", name, errb.String(), tc.want)
		}
	}
}

// TestBenchJSON pins the machine-readable perf record: a suite run
// with -bench-json writes a parseable file whose counters agree with
// the run.
func TestBenchJSON(t *testing.T) {
	t.Parallel()
	file := filepath.Join(t.TempDir(), "bench.json")
	var out, errb bytes.Buffer
	code := run([]string{"-all", "-j", "2", "-filter", "lpr-create-site*", "-bench-json", file}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "wrote benchmark stats to "+file) {
		t.Errorf("stdout does not announce the bench file:\n%s", out.String())
	}
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var bs struct {
		Schema      string  `json:"schema"`
		Catalog     string  `json:"catalog"`
		Filter      string  `json:"filter"`
		Jobs        int     `json:"jobs"`
		CatalogJobs int     `json:"catalog_jobs"`
		RunsTotal   int     `json:"runs_total"`
		RunsExec    int     `json:"runs_executed"`
		WallMillis  float64 `json:"wall_ms"`
		RunsPerSec  float64 `json:"runs_per_sec"`
		Workers     int     `json:"workers"`
	}
	if err := json.Unmarshal(b, &bs); err != nil {
		t.Fatalf("bench file does not parse: %v\n%s", err, b)
	}
	if bs.Schema != "eptest-bench/1" || bs.Catalog != "base" || bs.Filter != "lpr-create-site*" {
		t.Errorf("bench header = %+v", bs)
	}
	if bs.Jobs != 2 || bs.CatalogJobs != 2 || bs.Workers != 2 {
		t.Errorf("bench shape = %+v, want 2 jobs / 2 workers", bs)
	}
	if bs.RunsTotal <= 0 || bs.RunsExec != bs.RunsTotal || bs.WallMillis <= 0 || bs.RunsPerSec <= 0 {
		t.Errorf("bench counters = %+v, want positive cold-run throughput", bs)
	}
}
