package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a bytes.Buffer safe for the server goroutine to write
// while the test polls it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// serveInProcess runs an eptest serve mode in-process and stops it when
// the test ends: the cleanup cancels the serve loop and waits for run to
// return, so no server is left writing into a test directory while the
// directory is being removed. Callers create that directory before
// calling, which orders its removal after this cleanup.
func serveInProcess(t *testing.T, args ...string) (out, errb *syncBuffer) {
	t.Helper()
	out, errb = new(syncBuffer), new(syncBuffer)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		runContext(ctx, args, out, errb)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return out, errb
}

// startCacheServer launches `eptest -serve-cache` on an ephemeral port
// in-process and returns its base URL. The server stops when the test
// ends.
func startCacheServer(t *testing.T, dir string) string {
	t.Helper()
	out, errb := serveInProcess(t, "-serve-cache", "127.0.0.1:0", "-cache", dir)
	re := regexp.MustCompile(`listening on ([0-9.:]+) `)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1]
		}
		if s := errb.String(); s != "" {
			t.Fatalf("server failed to start: %s", s)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("server never announced its address; stdout %q", out.String())
	return ""
}

// TestServeCacheDistributedFlow is the CLI acceptance test for the
// HTTP transport: a cache server fronts one store directory, two shard
// workers run against it over -cache-url, and -merge on the server's
// directory reproduces the unsharded -all report byte for byte. A
// re-run of one worker then replays 100% from the shared cache.
func TestServeCacheDistributedFlow(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	url := startCacheServer(t, dir)

	// The server answers the liveness probe the CI job uses.
	resp, err := http.Get(url + "/v1/meta")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/meta = %s", resp.Status)
	}

	var full, s1, s2, merged, errb bytes.Buffer
	if code := run([]string{"-all", "-j", "4"}, &full, &errb); code != 0 {
		t.Fatalf("-all exit = %d, stderr = %s", code, errb.String())
	}
	if code := run([]string{"-all", "-j", "4", "-shard", "1/2", "-cache-url", url}, &s1, &errb); code != 0 {
		t.Fatalf("shard 1/2 exit = %d, stderr = %s", code, errb.String())
	}
	if code := run([]string{"-all", "-j", "4", "-shard", "2/2", "-cache-url", url}, &s2, &errb); code != 0 {
		t.Fatalf("shard 2/2 exit = %d, stderr = %s", code, errb.String())
	}
	for _, out := range []*bytes.Buffer{&s1, &s2} {
		if want := fmt.Sprintf("wrote 10 job(s) to %s", url); !strings.Contains(out.String(), want) {
			t.Errorf("shard output missing %q:\n%s", want, out.String())
		}
	}

	if code := run([]string{"-merge", dir}, &merged, &errb); code != 0 {
		t.Fatalf("-merge exit = %d, stderr = %s", code, errb.String())
	}
	got := merged.String()
	i := strings.Index(got, "merged from")
	if i < 0 {
		t.Fatalf("merge output missing the merged-shard section:\n%s", got)
	}
	if !strings.Contains(got[i:], "2 shard artifact(s), 20 jobs") {
		t.Errorf("merged-shard section:\n%s", got[i:])
	}
	if want := full.String(); strings.TrimSuffix(got[:i], "\n") != want {
		t.Errorf("merged report differs from -all:\n--- all ---\n%s\n--- merged ---\n%s", want, got[:i])
	}

	// The cache is shared: re-running a worker replays everything,
	// source-level, without re-executing even the clean runs.
	var warm bytes.Buffer
	if code := run([]string{"-all", "-j", "4", "-shard", "1/2", "-cache-url", url}, &warm, &errb); code != 0 {
		t.Fatalf("warm shard exit = %d, stderr = %s", code, errb.String())
	}
	if !strings.Contains(warm.String(), "result cache: 10/10 campaigns replayed (100.0% hits)") {
		t.Errorf("warm shard cache section:\n%s", warm.String())
	}
	if !strings.Contains(warm.String(), "source-fingerprint hit") {
		t.Errorf("warm shard replays were not source-level:\n%s", warm.String())
	}
	if suiteReport(warm.String()) != suiteReport(s1.String()) {
		t.Error("suite report differs between cold and warm shard runs")
	}
}

// TestServeCacheFlagValidation pins the new flag-combination and
// input-validation errors.
func TestServeCacheFlagValidation(t *testing.T) {
	t.Parallel()
	cases := map[string]struct {
		args []string
		want string
	}{
		"j zero":                 {[]string{"-all", "-j", "0"}, "-j 0 is not a worker count"},
		"j negative":             {[]string{"-campaign", "turnin", "-j", "-3"}, "-j -3 is not a worker count"},
		"serve with shard":       {[]string{"-serve-cache", ":0", "-cache", "d", "-shard", "1/2"}, "-serve-cache runs alone"},
		"serve with all":         {[]string{"-serve-cache", ":0", "-cache", "d", "-all"}, "-serve-cache runs alone"},
		"serve with cache-url":   {[]string{"-serve-cache", ":0", "-cache", "d", "-cache-url", "http://x"}, "-serve-cache runs alone"},
		"serve without store":    {[]string{"-serve-cache", ":0"}, "needs -cache DIR"},
		"cache-url without all":  {[]string{"-cache-url", "http://x"}, "require -all"},
		"cache-url with cache":   {[]string{"-all", "-cache-url", "http://x", "-cache", "d"}, "exactly one"},
		"cache-url malformed":    {[]string{"-all", "-cache-url", "10.0.0.7:7077"}, "cache URL \"10.0.0.7:7077\""},
		"cache-url empty host":   {[]string{"-all", "-cache-url", "http://"}, "must be absolute http(s)"},
		"cache-url wrong scheme": {[]string{"-all", "-cache-url", "ftp://host"}, "must be absolute http(s)"},
		"merge with cache-url":   {[]string{"-merge", "d", "-cache-url", "http://x"}, "-merge runs alone"},
		"shard needs some cache": {[]string{"-all", "-shard", "1/2"}, "-shard needs -cache DIR or -cache-url"},
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
